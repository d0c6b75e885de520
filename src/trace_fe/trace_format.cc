#include "trace_fe/trace_format.h"

#include <cstring>

#include "common/log.h"
#include "common/lz.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace trace {

namespace {

/** FNV-1a step shared by the content id and traceFileId(). */
std::uint64_t
fnv1a(std::uint64_t h, const void* p, std::size_t n)
{
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/**
 * Growable little serializer for header and meta payloads. Same wire
 * conventions as the checkpoint format: raw host-endian values, strings
 * as u32 length + bytes.
 */
class ByteWriter
{
  public:
    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(T));
    }

    void
    putString(const std::string& s)
    {
        put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }
    const std::vector<std::uint8_t>& buf() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over an untrusted payload; every failure goes
 * through the caller's DescriptorFail, which names the file.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t* p, std::size_t n, DescriptorFail fail)
        : p_(p), n_(n), fail_(std::move(fail))
    {
    }

    [[noreturn]] void
    fail(const std::string& what) const
    {
        fail_(what);
        pfm_panic("DescriptorFail returned: %s", what.c_str());
    }

    void
    bytes(void* out, std::size_t n)
    {
        if (n > remaining())
            fail("truncated payload");
        std::memcpy(out, p_ + pos_, n);
        pos_ += n;
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v{};
        bytes(&v, sizeof(T));
        return v;
    }

    std::string
    getString()
    {
        std::uint32_t n = get<std::uint32_t>();
        if (n > remaining())
            fail("truncated string");
        std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::size_t remaining() const { return n_ - pos_; }
    bool atEnd() const { return pos_ == n_; }

  private:
    const std::uint8_t* p_;
    std::size_t n_;
    std::size_t pos_ = 0;
    DescriptorFail fail_;
};

void
fwriteOrDie(std::FILE* f, const void* p, std::size_t n,
            const std::string& path)
{
    if (n && std::fwrite(p, 1, n, f) != n)
        pfm_fatal("trace %s: write failed", path.c_str());
}

void
freadOrDie(std::FILE* f, void* p, std::size_t n, const std::string& path,
           const char* what)
{
    if (n && std::fread(p, 1, n, f) != n)
        pfm_fatal("trace %s: truncated %s", path.c_str(), what);
}

} // namespace

void
encodeRecord(const DynInst& d, std::uint8_t* out)
{
    std::memcpy(out + 0, &d.pc, 8);
    std::memcpy(out + 8, &d.next_pc, 8);
    std::memcpy(out + 16, &d.mem_addr, 8);
    std::memcpy(out + 24, &d.result, 8);
    std::memcpy(out + 32, &d.store_val, 8);
    out[40] = d.taken ? 1 : 0;
    out[41] = d.mem_size;
}

void
decodeRecord(const std::uint8_t* in, DynInst& d)
{
    std::memcpy(&d.pc, in + 0, 8);
    std::memcpy(&d.next_pc, in + 8, 8);
    std::memcpy(&d.mem_addr, in + 16, 8);
    std::memcpy(&d.result, in + 24, 8);
    std::memcpy(&d.store_val, in + 32, 8);
    d.taken = in[40] != 0;
    d.mem_size = in[41];
}

void
writeBlock(std::FILE* f, std::uint8_t kind, const std::uint8_t* raw,
           std::size_t raw_len, bool compress, const std::string& path,
           std::uint64_t& content_id)
{
    std::vector<std::uint8_t> packed;
    const std::uint8_t* stored = raw;
    std::size_t stored_len = raw_len;
    std::uint8_t flags = 0;
    if (compress && raw_len) {
        lz::compress(raw, raw_len, packed);
        if (packed.size() < raw_len) {
            stored = packed.data();
            stored_len = packed.size();
            flags = kBlockFlagLz;
        }
    }
    const std::uint32_t crc = ckptCrc32(stored, stored_len);
    const std::uint64_t raw64 = raw_len;
    const std::uint64_t stored64 = stored_len;
    fwriteOrDie(f, &kind, 1, path);
    fwriteOrDie(f, &flags, 1, path);
    fwriteOrDie(f, &raw64, 8, path);
    fwriteOrDie(f, &stored64, 8, path);
    fwriteOrDie(f, &crc, 4, path);
    fwriteOrDie(f, stored, stored_len, path);

    content_id = fnv1a(content_id, &kind, 1);
    content_id = fnv1a(content_id, &raw64, 8);
    content_id = fnv1a(content_id, &crc, 4);
}

BlockHeader
readBlockHeader(std::FILE* f, const std::string& path)
{
    BlockHeader bh;
    freadOrDie(f, &bh.kind, 1, path, "block header");
    freadOrDie(f, &bh.flags, 1, path, "block header");
    freadOrDie(f, &bh.raw_len, 8, path, "block header");
    freadOrDie(f, &bh.stored_len, 8, path, "block header");
    freadOrDie(f, &bh.crc, 4, path, "block header");
    if (bh.kind > kBlockEnd)
        pfm_fatal("trace %s: unknown block kind %u", path.c_str(),
                  unsigned{bh.kind});
    // Bound untrusted lengths before any allocation: a flipped length bit
    // must die by name, not by bad_alloc (same policy as the checkpoint
    // reader).
    if (bh.flags & kBlockFlagLz) {
        if (bh.raw_len > lz::maxRawLen(bh.stored_len))
            pfm_fatal("trace %s: corrupt block raw length %llu "
                      "(stored %llu)",
                      path.c_str(), (unsigned long long)bh.raw_len,
                      (unsigned long long)bh.stored_len);
    } else if (bh.raw_len != bh.stored_len) {
        pfm_fatal("trace %s: uncompressed block declares raw %llu != "
                  "stored %llu",
                  path.c_str(), (unsigned long long)bh.raw_len,
                  (unsigned long long)bh.stored_len);
    }
    return bh;
}

void
readBlockPayload(std::FILE* f, const BlockHeader& bh,
                 std::vector<std::uint8_t>& raw, const std::string& path)
{
    std::vector<std::uint8_t> stored(
        static_cast<std::size_t>(bh.stored_len));
    freadOrDie(f, stored.data(), stored.size(), path, "block payload");
    if (ckptCrc32(stored.data(), stored.size()) != bh.crc)
        pfm_fatal("trace %s: block CRC mismatch", path.c_str());
    if (bh.flags & kBlockFlagLz) {
        raw.resize(static_cast<std::size_t>(bh.raw_len));
        if (!lz::decompress(stored.data(), stored.size(), raw.data(),
                            raw.size()))
            pfm_fatal("trace %s: corrupt compressed block", path.c_str());
    } else {
        raw = std::move(stored);
    }
}

void
skipBlockPayload(std::FILE* f, const BlockHeader& bh,
                 const std::string& path)
{
    if (std::fseek(f, static_cast<long>(bh.stored_len), SEEK_CUR) != 0)
        pfm_fatal("trace %s: truncated block payload", path.c_str());
}

void
writeHeader(std::FILE* f, const TraceHeader& h, const std::string& path)
{
    ByteWriter w;
    w.put(kTraceMagic);
    w.put(h.version);
    w.putString(h.isa);
    w.putString(h.workload);
    w.put(h.entry);
    w.put(h.instret);
    w.put(h.content_id);
    const std::uint32_t crc = ckptCrc32(w.buf().data(), w.buf().size());
    w.put(crc);
    fwriteOrDie(f, w.buf().data(), w.buf().size(), path);
}

TraceHeader
readHeader(std::FILE* f, const std::string& path)
{
    // The header is a short variable-length prefix; read it field-wise,
    // keeping the raw bytes for the CRC check.
    ByteWriter raw;
    auto read = [&](void* p, std::size_t n, const char* what) {
        freadOrDie(f, p, n, path, what);
        raw.bytes(p, n);
    };
    auto readString = [&](const char* what) {
        std::uint32_t n = 0;
        read(&n, 4, what);
        if (n > (std::uint32_t{1} << 20))
            pfm_fatal("trace %s: implausible %s length %u", path.c_str(),
                      what, n);
        std::string s(n, '\0');
        read(s.data(), n, what);
        return s;
    };

    std::uint64_t magic = 0;
    read(&magic, 8, "header");
    if (magic != kTraceMagic)
        pfm_fatal("trace %s: bad magic (not a PFM instruction trace)",
                  path.c_str());
    TraceHeader h;
    read(&h.version, 4, "header");
    if (h.version != kTraceVersion)
        pfm_fatal("trace %s: format version %u unsupported (expected %u)",
                  path.c_str(), h.version, kTraceVersion);
    h.isa = readString("isa tag");
    if (h.isa != traceIsaTag())
        pfm_fatal("trace %s: ISA '%s' unsupported (expected '%s')",
                  path.c_str(), h.isa.c_str(), traceIsaTag());
    h.workload = readString("workload name");
    read(&h.entry, 8, "header");
    read(&h.instret, 8, "header");
    read(&h.content_id, 8, "header");
    const std::uint32_t want =
        ckptCrc32(raw.buf().data(), raw.buf().size());
    std::uint32_t crc = 0;
    freadOrDie(f, &crc, 4, path, "header CRC");
    if (crc != want)
        pfm_fatal("trace %s: header CRC mismatch", path.c_str());
    return h;
}

namespace {

void
writeDescriptor(ByteWriter& b, const Workload& w)
{
    b.putString(w.name);
    b.put(w.entry);

    // Program: base + field-wise instructions + labels.
    const Program& p = w.program;
    b.put(p.base());
    b.put<std::uint64_t>(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        const Instruction& inst = p.inst(i);
        b.put<std::uint8_t>(static_cast<std::uint8_t>(inst.op));
        b.put(inst.rd);
        b.put(inst.rs1);
        b.put(inst.rs2);
        b.put(inst.imm);
        b.put(inst.target);
    }
    b.put<std::uint64_t>(p.labels().size());
    for (const auto& [label, idx] : p.labels()) {
        b.putString(label);
        b.put<std::uint64_t>(idx);
    }

    b.put<std::uint64_t>(w.init_regs.size());
    for (const auto& [reg, val] : w.init_regs) {
        b.put<std::uint32_t>(reg);
        b.put(val);
    }
    auto putAddrMap = [&b](const std::map<std::string, Addr>& m) {
        b.put<std::uint64_t>(m.size());
        for (const auto& [key, val] : m) {
            b.putString(key);
            b.put(val);
        }
    };
    putAddrMap(w.pcs);
    putAddrMap(w.data);
    b.put<std::uint64_t>(w.meta.size());
    for (const auto& [key, val] : w.meta) {
        b.putString(key);
        b.put(val);
    }
}

std::string
outOfRangeReg(unsigned reg)
{
    return "register " + std::to_string(reg) + " beyond the " +
           std::to_string(kNumArchRegs) + " architectural registers";
}

/**
 * Parse a descriptor into a Workload over a fresh, empty SimMemory. The
 * bytes are untrusted (a trace file or a checkpoint blob), so every
 * index the engine or the core will follow is range-checked here: the
 * opcode, each register, each branch target and label, the entry PC and
 * every initial-register index.
 */
Workload
readDescriptor(ByteReader& b)
{
    Workload w;
    w.name = b.getString();
    w.entry = b.get<Addr>();

    const Addr base = b.get<Addr>();
    const std::uint64_t ninst = b.get<std::uint64_t>();
    if (ninst > b.remaining())
        b.fail("implausible instruction count " + std::to_string(ninst));
    std::vector<Instruction> insts(static_cast<std::size_t>(ninst));
    for (Instruction& inst : insts) {
        const std::uint8_t op = b.get<std::uint8_t>();
        if (op >= static_cast<std::uint8_t>(Opcode::kNumOpcodes))
            b.fail("invalid opcode " + std::to_string(op));
        inst.op = static_cast<Opcode>(op);
        inst.rd = b.get<std::uint8_t>();
        inst.rs1 = b.get<std::uint8_t>();
        inst.rs2 = b.get<std::uint8_t>();
        for (unsigned reg : {inst.rd, inst.rs1, inst.rs2})
            if (reg >= kNumArchRegs)
                b.fail("instruction " + outOfRangeReg(reg));
        inst.imm = b.get<std::int64_t>();
        inst.target = b.get<std::int32_t>();
        if (inst.target >= 0 &&
            static_cast<std::uint64_t>(inst.target) >= ninst)
            b.fail("branch target " + std::to_string(inst.target) +
                   " out of range");
    }
    const std::uint64_t nlabels = b.get<std::uint64_t>();
    if (nlabels > b.remaining())
        b.fail("implausible label count " + std::to_string(nlabels));
    // Labels bind to "the next appended instruction", so rebuild the
    // program by interleaving defineLabel() with append() in index order.
    std::multimap<std::uint64_t, std::string> by_idx;
    std::string last;
    for (std::uint64_t i = 0; i < nlabels; ++i) {
        std::string label = b.getString();
        std::uint64_t idx = b.get<std::uint64_t>();
        // Written in name order, so a repeat is out of order too.
        if (i > 0 && label <= last)
            b.fail("label '" + label + "' repeated or out of order");
        if (idx >= ninst)
            b.fail("label '" + label + "' index " + std::to_string(idx) +
                   " past the program");
        last = label;
        by_idx.emplace(idx, std::move(label));
    }
    Program prog(base);
    auto lab = by_idx.begin();
    for (std::uint64_t i = 0; i < ninst; ++i) {
        for (; lab != by_idx.end() && lab->first == i; ++lab)
            prog.defineLabel(lab->second);
        prog.append(insts[static_cast<std::size_t>(i)]);
    }
    w.program = std::move(prog);
    if (!w.program.contains(w.entry))
        b.fail("entry PC " + std::to_string(w.entry) +
               " outside the program");

    const std::uint64_t nregs = b.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < nregs; ++i) {
        const std::uint32_t reg = b.get<std::uint32_t>();
        if (reg >= kNumArchRegs)
            b.fail("initial " + outOfRangeReg(reg));
        w.init_regs[reg] = b.get<RegVal>();
    }
    auto getAddrMap = [&b](std::map<std::string, Addr>& m) {
        const std::uint64_t n = b.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string key = b.getString();
            m[std::move(key)] = b.get<Addr>();
        }
    };
    getAddrMap(w.pcs);
    getAddrMap(w.data);
    const std::uint64_t nmeta = b.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < nmeta; ++i) {
        std::string key = b.getString();
        w.meta[std::move(key)] = b.get<std::uint64_t>();
    }
    w.mem = std::make_shared<SimMemory>();
    return w;
}

/** Die naming the trace at @p path. */
DescriptorFail
traceFail(const std::string& path)
{
    return [path](const std::string& what) {
        pfm_fatal("trace %s: %s in meta block", path.c_str(), what.c_str());
    };
}

} // namespace

std::vector<std::uint8_t>
encodeWorkloadDescriptor(const Workload& w)
{
    ByteWriter b;
    writeDescriptor(b, w);
    return b.take();
}

Workload
decodeWorkloadDescriptor(const std::uint8_t* p, std::size_t n,
                         const DescriptorFail& fail)
{
    ByteReader b(p, n, fail);
    Workload w = readDescriptor(b);
    if (!b.atEnd())
        b.fail("trailing bytes after the workload descriptor");
    return w;
}

std::vector<std::uint8_t>
encodeWorkloadMeta(const Workload& w)
{
    ByteWriter b;
    writeDescriptor(b, w);
    // Initial memory image: brk + mapped pages in address order.
    b.put(w.mem->brk());
    const std::vector<Addr> pages = w.mem->pageIndices();
    b.put<std::uint64_t>(pages.size());
    for (Addr pi : pages) {
        b.put(pi);
        b.bytes(w.mem->pageBytes(pi), SimMemory::kPageBytes);
    }
    return b.take();
}

Workload
decodeWorkloadMeta(const std::vector<std::uint8_t>& raw,
                   const std::string& path)
{
    ByteReader b(raw.data(), raw.size(), traceFail(path));
    Workload w = readDescriptor(b);
    const Addr brk = b.get<Addr>();
    const std::uint64_t npages = b.get<std::uint64_t>();
    std::vector<std::uint8_t> page(SimMemory::kPageBytes);
    for (std::uint64_t i = 0; i < npages; ++i) {
        const Addr pi = b.get<Addr>();
        b.bytes(page.data(), page.size());
        w.mem->writeBytes(pi << SimMemory::kPageShift, page.data(),
                          static_cast<unsigned>(page.size()));
    }
    w.mem->setBrk(brk);
    if (!b.atEnd())
        b.fail("trailing bytes");
    return w;
}

std::uint64_t
headerId(const TraceHeader& h)
{
    std::uint64_t id = kFnvOffset;
    id = fnv1a(id, h.workload.data(), h.workload.size());
    id = fnv1a(id, &h.instret, 8);
    id = fnv1a(id, &h.content_id, 8);
    return id;
}

std::uint64_t
traceFileId(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        pfm_fatal("trace %s: cannot open", path.c_str());
    TraceHeader h;
    try {
        h = readHeader(f, path);
    } catch (...) {
        std::fclose(f);
        throw;
    }
    std::fclose(f);
    return headerId(h);
}

void
validateTraceFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        pfm_fatal("trace %s: cannot open (missing file or permissions)",
                  path.c_str());
    try {
        readHeader(f, path);
    } catch (...) {
        std::fclose(f);
        throw;
    }
    std::fclose(f);
}

} // namespace trace
} // namespace pfm
