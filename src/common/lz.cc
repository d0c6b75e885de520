#include "common/lz.h"

#include <algorithm>
#include <cstring>

namespace pfm {
namespace lz {

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kMaxOffset = 65535;

/** Fibonacci hash of the 4 bytes at @p p. */
inline std::uint32_t
hash4(const std::uint8_t* p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Append a 15-nibble length with 255-terminated extension bytes. */
inline void
putLength(std::vector<std::uint8_t>& out, std::size_t len)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<std::uint8_t>(len));
}

/**
 * Emit one sequence: @p nlit literals from @p lit, then (when
 * @p match_len > 0) a match of @p match_len bytes at @p offset back.
 */
inline void
putSequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
            std::size_t nlit, std::size_t offset, std::size_t match_len)
{
    std::size_t mtok = match_len ? match_len - kMinMatch : 0;
    std::uint8_t token =
        static_cast<std::uint8_t>((nlit < 15 ? nlit : 15) << 4 |
                                  (mtok < 15 ? mtok : 15));
    out.push_back(token);
    if (nlit >= 15)
        putLength(out, nlit - 15);
    out.insert(out.end(), lit, lit + nlit);
    if (match_len) {
        out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
        out.push_back(static_cast<std::uint8_t>(offset >> 8));
        if (mtok >= 15)
            putLength(out, mtok - 15);
    }
}

} // namespace

bool
compress(const std::uint8_t* src, std::size_t n,
         std::vector<std::uint8_t>& out, std::size_t max_out)
{
    out.clear();
    if (n == 0)
        return true;
    out.reserve(std::min(n / 2, max_out) + 16);

    // Single-probe positional hash (pos + 1 so 0 means empty).
    std::vector<std::uint32_t> table(kHashSize, 0);

    std::size_t pos = 0;
    std::size_t lit_start = 0;
    // Stop matching near the end: a match needs 4 readable bytes at both
    // cursor and candidate, and the tail is emitted as literals anyway.
    const std::size_t match_limit = n >= kMinMatch ? n - kMinMatch + 1 : 0;

    while (pos < match_limit) {
        // Emitted bytes plus the pending literals bound the output below.
        if (out.size() + (pos - lit_start) > max_out)
            return false;
        std::uint32_t h = hash4(src + pos);
        std::size_t cand = table[h];
        table[h] = static_cast<std::uint32_t>(pos + 1);
        bool hit = cand != 0;
        if (hit) {
            --cand;  // stored pos + 1
            hit = pos - cand <= kMaxOffset &&
                  std::memcmp(src + cand, src + pos, kMinMatch) == 0;
        }
        if (!hit) {
            ++pos;
            continue;
        }
        // Extend the match forward.
        std::size_t len = kMinMatch;
        while (pos + len < n && src[cand + len] == src[pos + len])
            ++len;
        putSequence(out, src + lit_start, pos - lit_start, pos - cand, len);
        // Re-seed the table inside the match so runs keep chaining (one
        // probe every other byte keeps the cost linear).
        std::size_t end = pos + len;
        for (pos += 2; pos + kMinMatch <= end && pos < match_limit;
             pos += 2)
            table[hash4(src + pos)] = static_cast<std::uint32_t>(pos + 1);
        pos = end;
        lit_start = pos;
    }

    // Trailing literals (possibly the whole input).
    putSequence(out, src + lit_start, n - lit_start, 0, 0);
    return out.size() <= max_out;
}

bool
decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
           std::size_t dst_len) noexcept
{
    std::size_t ip = 0;
    std::size_t op = 0;

    // Read a 255-terminated length extension; false on truncation.
    auto ext = [&](std::size_t& len) -> bool {
        std::uint8_t b;
        do {
            if (ip >= n)
                return false;
            b = src[ip++];
            len += b;
        } while (b == 255);
        return true;
    };

    while (ip < n) {
        std::uint8_t token = src[ip++];
        std::size_t nlit = token >> 4;
        if (nlit == 15 && !ext(nlit))
            return false;
        if (nlit > n - ip || nlit > dst_len - op)
            return false;
        std::memcpy(dst + op, src + ip, nlit);
        ip += nlit;
        op += nlit;
        if (ip == n)
            break;  // final sequence: literals only, no offset

        if (n - ip < 2)
            return false;
        std::size_t offset = src[ip] | std::size_t{src[ip + 1]} << 8;
        ip += 2;
        if (offset == 0 || offset > op)
            return false;
        std::size_t mlen = (token & 0xF);
        if (mlen == 15 && !ext(mlen))
            return false;
        mlen += kMinMatch;
        if (mlen > dst_len - op)
            return false;
        const std::uint8_t* from = dst + op - offset;
        if (offset >= mlen) {
            std::memcpy(dst + op, from, mlen);
        } else {
            // Overlapping match (RLE): byte-wise, semantics require it.
            for (std::size_t i = 0; i < mlen; ++i)
                dst[op + i] = from[i];
        }
        op += mlen;
    }
    return op == dst_len;
}

} // namespace lz
} // namespace pfm
