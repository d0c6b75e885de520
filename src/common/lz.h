/**
 * @file
 * In-tree LZ-class block codec for checkpoint section compression. No
 * external dependency: the container toolchain is frozen, and checkpoint
 * blobs are an intra-machine hand-off, so a small deterministic LZ77
 * variant beats shipping a real compressor.
 *
 * Stream format (LZ4-flavoured byte stream, 64 KiB window):
 *
 *   sequence: token u8 | [lit-len ext bytes] | literals |
 *             offset u16 LE | [match-len ext bytes]
 *
 * The token's high nibble is the literal count, low nibble the match
 * length minus kMinMatch; a nibble of 15 continues in 255-terminated
 * extension bytes (each 255 adds 255, the final byte adds its value).
 * The last sequence carries literals only — the stream simply ends after
 * them, with no offset. Offsets are 1..65535 back from the write cursor;
 * matches may overlap their own output (the RLE case), so the decoder
 * copies byte-wise when they do.
 *
 * Determinism: compress() is a pure function of its input bytes — the
 * match finder is a fixed-size positional hash with no randomization —
 * so identical sections compress to identical blobs, which the
 * content-addressed checkpoint store's dedup relies on.
 */

#ifndef PFM_COMMON_LZ_H
#define PFM_COMMON_LZ_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfm {
namespace lz {

/** Matches shorter than this are never emitted (they would not pay for
 *  their token + offset). */
constexpr std::size_t kMinMatch = 4;

/**
 * Upper bound on the raw length any well-formed @p stored_len-byte
 * stream can decode to: each stored byte yields at most 255 output
 * bytes (a match-length extension byte), plus a constant for the token
 * nibbles and the minimum match. Framing that declares a larger raw
 * length is corrupt by construction — callers reject it before
 * allocating the output buffer, so a flipped length bit dies with a
 * named diagnostic instead of a bad_alloc.
 */
constexpr std::uint64_t
maxRawLen(std::uint64_t stored_len) noexcept
{
    return stored_len * 255 + 255 + kMinMatch + 15;
}

/**
 * Compress @p n bytes at @p src into @p out (replacing its contents).
 * Incompressible input degenerates to literal runs with ~0.4% overhead.
 * Returns true with out.size() the exact compressed size, or false —
 * stopping early, @p out then holding a truncated stream — once the
 * output passes @p max_out bytes.
 */
bool compress(const std::uint8_t* src, std::size_t n,
              std::vector<std::uint8_t>& out,
              std::size_t max_out = SIZE_MAX);

/**
 * Decompress @p n bytes at @p src into exactly @p dst_len bytes at
 * @p dst. Returns false — without touching memory out of bounds — on any
 * malformed input: truncated stream, offset past the output start,
 * output over- or underrun. The caller knows the expected raw length
 * (checkpoint framing records it), so "produced a different size" is
 * corruption by definition.
 */
bool decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
                std::size_t dst_len) noexcept;

} // namespace lz
} // namespace pfm

#endif // PFM_COMMON_LZ_H
