/**
 * @file
 * On-disk format of recorded instruction traces (ChampSim-style: a
 * self-describing header plus compressed blocks of fixed-width dynamic
 * records). See DESIGN.md "Instruction sources & trace format".
 *
 * File layout:
 *
 *   header: magic u64 | version u32 | isa string | workload string |
 *           entry u64 | instret u64 | content id u64 | header CRC32 u32
 *   block:  kind u8 | flags u8 | raw length u64 | stored length u64 |
 *           CRC32 u32 (of stored bytes) | stored bytes
 *   ...     one meta block, then instruction blocks in stream order,
 *           then one empty end block
 *
 * Strings are u32 length + bytes; every multi-byte value is host-endian
 * (traces, like checkpoints, are an intra-machine hand-off). Flags bit 0
 * marks the stored bytes as lz-compressed (common/lz.h); the writer keeps
 * compression only when it actually shrinks the block. The header is
 * provisionally written at open and rewritten at finish() with the final
 * instret/content id (its byte length never changes), and the whole file
 * lands via temp + rename so a crashed recording never leaves a
 * half-trace under the final name.
 *
 * The *meta* block carries everything needed to materialize a Workload:
 * its descriptor (encodeWorkloadDescriptor: the assembled program,
 * instructions field-wise + labels, the initial register file and the
 * PC/data/meta annotation maps), then the full initial SimMemory image
 * (brk + pages). The *instruction* blocks carry
 * kRecordBytes-wide dynamic records with the sequence number implicit
 * (records are strictly in program order from seq 0), so a reader can
 * seek by scanning block headers alone — no index section needed.
 *
 * The content id is FNV-1a over every block's (kind, raw length, CRC) in
 * stream order plus the final instret: a cheap whole-file identity that
 * configFingerprint() folds in, so checkpoints taken against a trace die
 * by fingerprint when the file is re-recorded, and the daemon's warm
 * cache keys distinct trace contents apart.
 *
 * All read-side validation failures (missing file, bad magic, version or
 * ISA mismatch, CRC mismatch, truncation, malformed meta) are pfm_fatal
 * naming the trace path — a corrupt trace must never crash or silently
 * misload.
 */

#ifndef PFM_TRACE_FE_TRACE_FORMAT_H
#define PFM_TRACE_FE_TRACE_FORMAT_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "isa/dyn_inst.h"
#include "workloads/workload.h"

namespace pfm {
namespace trace {

/** "PFMTRACE" little-endian. */
constexpr std::uint64_t kTraceMagic = 0x45434152544d4650ull;

/** Bump on any layout change (header, block framing, record width). */
constexpr std::uint32_t kTraceVersion = 1;

/** ISA tag recorded in (and demanded from) every trace header. */
inline const char* traceIsaTag() { return "pfm-micro-v1"; }

/** Workload names of the form "trace:<path>" select the trace frontend. */
constexpr const char* kTraceWorkloadPrefix = "trace:";

inline bool
isTraceWorkload(const std::string& name)
{
    return name.rfind(kTraceWorkloadPrefix, 0) == 0;
}

/** The "<path>" part of a "trace:<path>" workload name. */
inline std::string
traceWorkloadPath(const std::string& name)
{
    return name.substr(std::string(kTraceWorkloadPrefix).size());
}

/** Parsed trace header. */
struct TraceHeader {
    std::uint32_t version = kTraceVersion;
    std::string isa = traceIsaTag();
    std::string workload;        ///< original workload name (e.g. "bfs-roads")
    std::uint64_t entry = 0;     ///< workload entry PC
    std::uint64_t instret = 0;   ///< total dynamic records in the file
    std::uint64_t content_id = 0;
};

/** Block kinds, in required stream order: one meta, N insts, one end. */
enum BlockKind : std::uint8_t {
    kBlockMeta = 0,
    kBlockInsts = 1,
    kBlockEnd = 2,
};

/** Flags bit 0: stored bytes are lz-compressed. */
constexpr std::uint8_t kBlockFlagLz = 1;

/** FNV-1a offset basis: initial value of the running content id. */
constexpr std::uint64_t kContentIdSeed = 1469598103934665603ull;

/** Fixed width of one encoded dynamic record. */
constexpr std::size_t kRecordBytes = 42;

/** Records per instruction block (last block may be short). */
constexpr std::size_t kRecordsPerBlock = std::size_t{1} << 16;

/** Encode @p d (seq and inst pointer are not stored) at @p out. */
void encodeRecord(const DynInst& d, std::uint8_t* out);

/** Decode into @p d, filling every field except seq and inst. */
void decodeRecord(const std::uint8_t* in, DynInst& d);

/** Parsed block frame header (the bytes before the payload). */
struct BlockHeader {
    std::uint8_t kind = kBlockEnd;
    std::uint8_t flags = 0;
    std::uint64_t raw_len = 0;
    std::uint64_t stored_len = 0;
    std::uint32_t crc = 0;
};

/** Bytes a block frame header occupies on disk. */
constexpr std::size_t kBlockHeaderBytes = 1 + 1 + 8 + 8 + 4;

/**
 * Write one block at the current position: compresses @p raw when
 * @p compress pays off, emits the frame, and folds the block identity
 * into @p content_id. Fatal on I/O error (names @p path).
 */
void writeBlock(std::FILE* f, std::uint8_t kind, const std::uint8_t* raw,
                std::size_t raw_len, bool compress,
                const std::string& path, std::uint64_t& content_id);

/** Read and sanity-check one block frame header. Fatal naming @p path. */
BlockHeader readBlockHeader(std::FILE* f, const std::string& path);

/**
 * Read the payload of @p bh into @p raw (CRC-checked, decompressed).
 * Fatal naming @p path on corruption.
 */
void readBlockPayload(std::FILE* f, const BlockHeader& bh,
                      std::vector<std::uint8_t>& raw,
                      const std::string& path);

/** Seek past the payload of @p bh. Fatal on a truncated file. */
void skipBlockPayload(std::FILE* f, const BlockHeader& bh,
                      const std::string& path);

/**
 * Write the header at the current position (always offset 0). The byte
 * length depends only on the string fields, so the finish()-time rewrite
 * with final instret/content id lands on the identical extent.
 */
void writeHeader(std::FILE* f, const TraceHeader& h,
                 const std::string& path);

/** Read and validate the header (magic, version, ISA, CRC). Fatal. */
TraceHeader readHeader(std::FILE* f, const std::string& path);

/**
 * Reports a malformed descriptor or meta payload, naming the file it came
 * from; must not return (pfm_fatal or CkptReader::fail).
 */
using DescriptorFail = std::function<void(const std::string& what)>;

/**
 * Serialize a workload's static *descriptor*: name, entry, the program
 * (instructions field-wise + labels), the initial registers and the
 * pcs/data/meta annotation maps — everything but the memory image. A
 * checkpoint's "workload" section holds exactly these bytes; a trace
 * meta block holds them followed by the image.
 */
std::vector<std::uint8_t> encodeWorkloadDescriptor(const Workload& w);

/**
 * Parse a descriptor (all @p n bytes) into a Workload over a fresh,
 * empty SimMemory. Untrusted input: opcodes, registers, branch targets,
 * labels and the entry PC are range-checked, and any malformation dies
 * through @p fail.
 */
Workload decodeWorkloadDescriptor(const std::uint8_t* p, std::size_t n,
                                  const DescriptorFail& fail);

/** The meta-block payload: the descriptor, then brk + every page. */
std::vector<std::uint8_t> encodeWorkloadMeta(const Workload& w);

/**
 * Materialize a Workload (descriptor + its image in a fresh SimMemory)
 * from a meta-block payload. @p path names the trace in diagnostics.
 */
Workload decodeWorkloadMeta(const std::vector<std::uint8_t>& raw,
                            const std::string& path);

/** The traceFileId() hash computed from an already-parsed header. */
std::uint64_t headerId(const TraceHeader& h);

/**
 * Cheap whole-file identity from the header alone (no block scan):
 * FNV-1a over workload, instret and content id. Fatal when the file is
 * missing or its header is invalid — callers fingerprinting a trace have
 * already committed to reading it.
 */
std::uint64_t traceFileId(const std::string& path);

/**
 * Validate that @p path exists and carries a well-formed trace header.
 * Fatal (pfm_fatal) with a client-presentable diagnostic otherwise; used
 * by the daemon to turn bad trace requests into err frames instead of
 * worker death. Does not scan blocks.
 */
void validateTraceFile(const std::string& path);

} // namespace trace
} // namespace pfm

#endif // PFM_TRACE_FE_TRACE_FORMAT_H
