/**
 * @file
 * Unit tests for the micro-ISA: assembler, functional engine, simulated
 * memory, and the commit log (committed-view reads).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/functional_engine.h"
#include "mem_sys/commit_log.h"
#include "mem_sys/sim_memory.h"
#include "sim/checkpoint.h"
#include "sim/ckpt_store.h"

namespace pfm {
namespace {

TEST(SimMemory, ReadsZeroWhenUntouched)
{
    SimMemory m;
    EXPECT_EQ(m.read<std::uint64_t>(0x5000), 0u);
}

TEST(SimMemory, ReadWriteRoundTrip)
{
    SimMemory m;
    m.write<std::uint32_t>(0x1234, 0xDEADBEEF);
    EXPECT_EQ(m.read<std::uint32_t>(0x1234), 0xDEADBEEFu);
    m.write<double>(0x2000, 3.5);
    EXPECT_DOUBLE_EQ(m.read<double>(0x2000), 3.5);
}

TEST(SimMemory, CrossPageAccess)
{
    SimMemory m;
    Addr a = SimMemory::kPageBytes - 4;
    m.write<std::uint64_t>(a, 0x1122334455667788ull);
    EXPECT_EQ(m.read<std::uint64_t>(a), 0x1122334455667788ull);
}

TEST(SimMemory, AllocRespectsAlignment)
{
    SimMemory m;
    Addr a = m.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    Addr b = m.alloc(10, 64);
    EXPECT_GE(b, a + 10);
    EXPECT_EQ(b % 64, 0u);
}

/**
 * Byte-map reference for SimMemory: the mapped pages (every page a store
 * has touched, or a restore mapped), their bytes and the brk, plus the
 * engine-section image a save must produce from them.
 */
struct MemModel {
    std::map<Addr, std::vector<std::uint8_t>> pages;
    Addr brk = SimMemory{}.brk();

    std::uint8_t
    read(Addr a) const
    {
        auto it = pages.find(a >> SimMemory::kPageShift);
        return it == pages.end()
            ? 0
            : it->second[a & (SimMemory::kPageBytes - 1)];
    }

    void
    write(Addr a, std::uint8_t v)
    {
        auto& page = pages[a >> SimMemory::kPageShift];
        page.resize(SimMemory::kPageBytes); // a new page starts zeroed
        page[a & (SimMemory::kPageBytes - 1)] = v;
    }

    Addr
    alloc(Addr bytes, Addr align)
    {
        brk = (brk + align - 1) & ~(align - 1);
        const Addr a = brk;
        brk += bytes;
        return a;
    }

    /** SimMemory::saveState()'s payload for this model. */
    std::vector<std::uint8_t>
    image() const
    {
        std::vector<std::uint8_t> out;
        auto put = [&out](const void* p, std::size_t n) {
            const auto* b = static_cast<const std::uint8_t*>(p);
            out.insert(out.end(), b, b + n);
        };
        const std::uint64_t n = pages.size();
        put(&n, sizeof n);
        for (const auto& [pi, bytes] : pages) {
            put(&pi, sizeof pi);
            put(bytes.data(), bytes.size());
        }
        put(&brk, sizeof brk);
        return out;
    }
};

CkptSectionDigest
saveDigest(const SimMemory& m)
{
    CkptWriter w("");
    w.setDigestOnly();
    w.writeHeader(CkptHeader{});
    w.beginSection("engine");
    m.saveState(w);
    w.endSection();
    return w.digests().front();
}

/** Round trip: save @p from to @p path, then restore it into @p to. */
void
saveThenLoad(const SimMemory& from, SimMemory& to, const std::string& path)
{
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("engine");
    from.saveState(w);
    w.endSection();
    w.finish();

    CkptReader r(path);
    r.readHeader();
    r.beginSection("engine");
    to.loadState(r);
    r.endSection();
}

/** Every read path, the page list and the saved image agree with @p ref. */
void
expectMatchesModel(const SimMemory& m, const MemModel& ref)
{
    std::vector<Addr> want;
    for (const auto& [pi, bytes] : ref.pages)
        want.push_back(pi);
    ASSERT_EQ(want, m.pageIndices());
    EXPECT_EQ(ref.brk, m.brk());
    for (const auto& [pi, bytes] : ref.pages) {
        std::vector<std::uint8_t> got(SimMemory::kPageBytes);
        m.readBytes(pi << SimMemory::kPageShift, got.data(),
                    static_cast<unsigned>(got.size()));
        ASSERT_EQ(bytes, got) << "page " << pi;
    }
    const std::vector<std::uint8_t> image = ref.image();
    const CkptSectionDigest d = saveDigest(m);
    EXPECT_EQ(image.size(), d.bytes);
    EXPECT_EQ(ckptCrc32(image.data(), image.size()), d.crc);
}

TEST(SimMemory, MatchesByteMapModelAcrossSaveLoadRoundTrips)
{
    // Random reads, writes and allocs over a few pages around the data
    // segment, most of them near page boundaries, interleaved with save
    // -> load round trips into the same memory: after a load every page
    // is shared with the checkpoint blob, so the next stores exercise
    // copy-on-write. A second memory restored from the first round trip
    // and never written must keep its image while the blobs of later
    // round trips come and go: its pages live only as long as its pin.
    std::mt19937_64 rng(20211018);
    auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    const Addr base = SimMemory{}.brk() - SimMemory::kPageBytes;
    auto addr = [&]() -> Addr {
        const Addr page = base + pick(6) * SimMemory::kPageBytes;
        return pick(2) ? page + pick(SimMemory::kPageBytes)
                       : page - 8 + pick(16); // straddles or abuts
    };
    auto value = [&]() -> std::uint64_t {
        return pick(4) == 0 ? 0 : rng(); // zero stores still map pages
    };

    SimMemory m;
    MemModel ref;
    SimMemory snapshot;
    MemModel snapshot_ref;
    constexpr int kRounds = 12;
    for (int round = 0; round < kRounds; ++round) {
        SCOPED_TRACE(round);
        for (int op = 0; op < 300; ++op) {
            const Addr a = addr();
            const unsigned size = 1u << pick(4);
            switch (pick(7)) {
            case 0: {
                const std::uint64_t v = value();
                m.write<std::uint64_t>(a, v);
                for (unsigned i = 0; i < 8; ++i)
                    ref.write(a + i, static_cast<std::uint8_t>(v >> 8 * i));
                break;
            }
            case 1: {
                const std::uint64_t v = value();
                m.writeInt(a, v, size);
                for (unsigned i = 0; i < size; ++i)
                    ref.write(a + i, static_cast<std::uint8_t>(v >> 8 * i));
                break;
            }
            case 2: {
                std::vector<std::uint8_t> buf(1 + pick(2 * 4096 + 500));
                const std::uint8_t fill = static_cast<std::uint8_t>(value());
                for (std::size_t i = 0; i < buf.size(); ++i)
                    buf[i] = static_cast<std::uint8_t>(fill + i * (fill & 1));
                m.writeBytes(a, buf.data(), static_cast<unsigned>(buf.size()));
                for (std::size_t i = 0; i < buf.size(); ++i)
                    ref.write(a + i, buf[i]);
                break;
            }
            case 3: {
                std::uint64_t want = 0;
                for (unsigned i = 0; i < size; ++i)
                    want |= std::uint64_t{ref.read(a + i)} << 8 * i;
                ASSERT_EQ(want, m.readInt(a, size)) << std::hex << a;
                std::uint64_t want8 = 0;
                for (unsigned i = 0; i < 8; ++i)
                    want8 |= std::uint64_t{ref.read(a + i)} << 8 * i;
                ASSERT_EQ(want8, m.read<std::uint64_t>(a)) << std::hex << a;
                break;
            }
            case 4: {
                std::vector<std::uint8_t> got(1 + pick(2 * 4096 + 500));
                m.readBytes(a, got.data(), static_cast<unsigned>(got.size()));
                for (std::size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(ref.read(a + i), got[i]) << std::hex << a + i;
                break;
            }
            case 5: {
                const Addr bytes = pick(3000);
                const Addr align = Addr{1} << pick(8);
                ASSERT_EQ(ref.alloc(bytes, align), m.alloc(bytes, align));
                break;
            }
            default: {
                const std::uint8_t v = static_cast<std::uint8_t>(value());
                m.write<std::uint8_t>(a, v);
                ref.write(a, v);
                break;
            }
            }
        }
        const std::string path = ::testing::TempDir() + "simmem_model_" +
                                 std::to_string(round) + ".ckpt";
        saveThenLoad(m, m, path);
        expectMatchesModel(m, ref);
        if (round == 0) {
            saveThenLoad(m, snapshot, path);
            snapshot_ref = ref;
        }
        ckptRemove(path);
    }
    expectMatchesModel(snapshot, snapshot_ref);
}

TEST(SimMemory, ReadsBeyondTheAddressSpaceAreZero)
{
    SimMemory m;
    EXPECT_EQ(0u, m.read<std::uint64_t>(SimMemory::kAddrSpaceBytes + 64));
    EXPECT_EQ(0u, m.readInt(~Addr{0} - 3, 4));
    m.write<std::uint64_t>(SimMemory::kAddrSpaceBytes - 8, 7);
    EXPECT_EQ(7u, m.read<std::uint64_t>(SimMemory::kAddrSpaceBytes - 8));
}

TEST(SimMemoryDeathTest, StoreBeyondTheAddressSpaceIsFatal)
{
    SimMemory m;
    EXPECT_EXIT(m.write<std::uint32_t>(SimMemory::kAddrSpaceBytes + 4, 1),
                ::testing::ExitedWithCode(1),
                "store to 0x100000004 beyond the 4 GiB simulated address "
                "space");
    // The second half of a page-straddling store names its own address.
    EXPECT_EXIT(m.write<std::uint64_t>(SimMemory::kAddrSpaceBytes - 4, 1),
                ::testing::ExitedWithCode(1), "store to 0x100000000 beyond");
}

TEST(Assembler, ParsesAluAndLoads)
{
    Program p = assemble("start:\n"
                         "  li x1, 100\n"
                         "  addi x2, x1, -1\n"
                         "  add x3, x1, x2\n"
                         "  ld x4, 8(x3)\n"
                         "  sd x4, 16(x3)\n"
                         "  halt\n");
    EXPECT_EQ(p.size(), 6u);
    EXPECT_EQ(p.inst(0).op, Opcode::kAddi);
    EXPECT_EQ(p.inst(0).imm, 100);
    EXPECT_EQ(p.inst(3).op, Opcode::kLd);
    EXPECT_EQ(p.inst(3).imm, 8);
    EXPECT_EQ(p.inst(4).op, Opcode::kSd);
    EXPECT_TRUE(p.hasLabel("start"));
}

TEST(Assembler, ResolvesForwardAndBackwardLabels)
{
    Program p = assemble("  j fwd\n"
                         "back:\n"
                         "  halt\n"
                         "fwd:\n"
                         "  beq x0, x0, back\n");
    EXPECT_EQ(p.inst(0).target, 2);
    EXPECT_EQ(p.inst(2).target, 1);
}

TEST(Assembler, FpRegistersParse)
{
    Program p = assemble("  fld f1, 0(x2)\n"
                         "  fmul f3, f1, f1\n"
                         "  fsd f3, 8(x2)\n");
    EXPECT_EQ(p.inst(0).rd, fpReg(1));
    EXPECT_EQ(p.inst(1).rs1, fpReg(1));
    EXPECT_EQ(p.inst(2).rs2, fpReg(3));
}

TEST(Assembler, CommentsAndBlankLinesIgnored)
{
    Program p = assemble("# a comment\n"
                         "\n"
                         "  nop  # trailing comment\n");
    EXPECT_EQ(p.size(), 1u);
}

TEST(Assembler, DisassemblesSomething)
{
    Program p = assemble("foo:\n  addi x1, x0, 5\n  halt\n");
    std::string d = p.disassemble();
    EXPECT_NE(d.find("foo:"), std::string::npos);
    EXPECT_NE(d.find("addi"), std::string::npos);
}

class EngineTest : public ::testing::Test
{
  protected:
    DynInst
    runProgram(const std::string& src, SimMemory& mem,
               std::vector<DynInst>* trace = nullptr)
    {
        prog_ = assemble(src);
        engine_ = std::make_unique<FunctionalEngine>(prog_, mem);
        engine_->reset(prog_.base());
        DynInst last{};
        while (!engine_->halted()) {
            last = engine_->step();
            if (trace)
                trace->push_back(last);
        }
        return last;
    }

    Program prog_;
    std::unique_ptr<FunctionalEngine> engine_;
};

TEST_F(EngineTest, ArithmeticLoop)
{
    SimMemory mem;
    runProgram("  li x1, 0\n"
               "  li x2, 10\n"
               "loop:\n"
               "  addi x1, x1, 3\n"
               "  addi x2, x2, -1\n"
               "  bne x2, x0, loop\n"
               "  halt\n",
               mem);
    EXPECT_EQ(engine_->reg(1), 30u);
    EXPECT_EQ(engine_->reg(2), 0u);
}

TEST_F(EngineTest, LoadStoreThroughMemory)
{
    SimMemory mem;
    mem.write<std::uint64_t>(0x200000, 41);
    runProgram("  li x1, 0x200000\n"
               "  ld x2, 0(x1)\n"
               "  addi x2, x2, 1\n"
               "  sd x2, 8(x1)\n"
               "  halt\n",
               mem);
    EXPECT_EQ(mem.read<std::uint64_t>(0x200008), 42u);
}

TEST_F(EngineTest, SignExtensionOfLw)
{
    SimMemory mem;
    mem.write<std::uint32_t>(0x200000, 0xFFFFFFFF);
    runProgram("  li x1, 0x200000\n"
               "  lw x2, 0(x1)\n"
               "  lwu x3, 0(x1)\n"
               "  halt\n",
               mem);
    EXPECT_EQ(engine_->reg(2), ~RegVal{0});
    EXPECT_EQ(engine_->reg(3), 0xFFFFFFFFu);
}

TEST_F(EngineTest, BranchRecordsDirectionAndTarget)
{
    SimMemory mem;
    std::vector<DynInst> trace;
    runProgram("  li x1, 1\n"
               "  beq x1, x0, skip\n"
               "  addi x2, x0, 7\n"
               "skip:\n"
               "  halt\n",
               mem, &trace);
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_EQ(trace[1].next_pc, trace[1].pc + 4);
    EXPECT_EQ(engine_->reg(2), 7u);
}

TEST_F(EngineTest, CallAndReturn)
{
    SimMemory mem;
    runProgram("  li x5, 1\n"
               "  call fn\n"
               "  addi x5, x5, 100\n"
               "  halt\n"
               "fn:\n"
               "  addi x5, x5, 10\n"
               "  ret\n",
               mem);
    EXPECT_EQ(engine_->reg(5), 111u);
}

TEST_F(EngineTest, FpArithmetic)
{
    SimMemory mem;
    mem.write<double>(0x200000, 1.5);
    mem.write<double>(0x200008, 2.0);
    runProgram("  li x1, 0x200000\n"
               "  fld f1, 0(x1)\n"
               "  fld f2, 8(x1)\n"
               "  fmul f3, f1, f2\n"
               "  fadd f4, f3, f2\n"
               "  fsd f4, 16(x1)\n"
               "  halt\n",
               mem);
    EXPECT_DOUBLE_EQ(mem.read<double>(0x200010), 5.0);
}

TEST_F(EngineTest, X0IsHardwiredZero)
{
    SimMemory mem;
    runProgram("  addi x0, x0, 55\n"
               "  mv x1, x0\n"
               "  halt\n",
               mem);
    EXPECT_EQ(engine_->reg(0), 0u);
    EXPECT_EQ(engine_->reg(1), 0u);
}

TEST(CommitLog, CommittedReadSeesPreStoreValue)
{
    SimMemory mem;
    CommitLog log(mem);
    mem.write<std::uint32_t>(0x1000, 7);

    log.recordStore(1, 0x1000, 4);
    mem.write<std::uint32_t>(0x1000, 9);

    // In-flight store: committed view is still 7.
    EXPECT_EQ(log.committedRead(0x1000, 4), 7u);

    log.retireStore(1, 0x1000, 4);
    EXPECT_EQ(log.committedRead(0x1000, 4), 9u);
}

TEST(CommitLog, NestedStoresToSameAddress)
{
    SimMemory mem;
    CommitLog log(mem);
    mem.write<std::uint32_t>(0x1000, 1);

    log.recordStore(1, 0x1000, 4);
    mem.write<std::uint32_t>(0x1000, 2);
    log.recordStore(2, 0x1000, 4);
    mem.write<std::uint32_t>(0x1000, 3);

    EXPECT_EQ(log.committedRead(0x1000, 4), 1u);
    log.retireStore(1, 0x1000, 4);
    EXPECT_EQ(log.committedRead(0x1000, 4), 2u);
    log.retireStore(2, 0x1000, 4);
    EXPECT_EQ(log.committedRead(0x1000, 4), 3u);
}

TEST(CommitLog, PartialOverlapIsByteAccurate)
{
    SimMemory mem;
    CommitLog log(mem);
    mem.write<std::uint64_t>(0x1000, 0);

    log.recordStore(5, 0x1002, 2);
    mem.write<std::uint16_t>(0x1002, 0xBEEF);

    EXPECT_EQ(log.committedRead(0x1000, 8), 0u);
    EXPECT_EQ(mem.read<std::uint16_t>(0x1002), 0xBEEF);
    log.retireStore(5, 0x1002, 2);
    EXPECT_EQ(log.committedRead(0x1000, 8),
              std::uint64_t{0xBEEF} << 16);
}

TEST(CommitLogDeathTest, OutOfOrderRetireAborts)
{
    SimMemory mem;
    CommitLog log(mem);
    log.recordStore(1, 0x1000, 4);
    log.recordStore(2, 0x2000, 4);
    // Disjoint bytes, but store 1 is older: 2 cannot retire first.
    EXPECT_DEATH(log.retireStore(2, 0x2000, 4),
                 "stores must retire in order");
}

TEST(CommitLog, CheckpointRoundTripKeepsCommittedView)
{
    SimMemory mem;
    CommitLog log(mem);
    mem.write<std::uint64_t>(0x1000, 0x0807060504030201ull);
    log.recordStore(3, 0x1002, 4);
    mem.write<std::uint32_t>(0x1002, 0xAAAAAAAA);
    log.recordStore(4, 0x1000, 8);
    mem.write<std::uint64_t>(0x1000, ~0ull);
    log.recordStore(6, 0x1005, 1);
    mem.write<std::uint8_t>(0x1005, 0x55);

    const std::string path = ::testing::TempDir() + "commit_log.ckpt";
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("log");
    log.saveState(w);
    w.endSection();
    w.finish();

    CommitLog restored(mem);
    CkptReader r(path);
    r.readHeader();
    r.beginSection("log");
    restored.loadState(r);
    r.endSection();
    ckptRemove(path);

    for (Addr a = 0x0FFE; a < 0x100A; ++a)
        for (unsigned size = 1; size <= 8; ++size)
            ASSERT_EQ(restored.committedRead(a, size),
                      log.committedRead(a, size))
                << a << "/" << size;
    // The FIFO came back in seq order: the stores retire as recorded.
    restored.retireStore(3, 0x1002, 4);
    restored.retireStore(4, 0x1000, 8);
    restored.retireStore(6, 0x1005, 1);
    EXPECT_EQ(restored.committedRead(0x1000, 8), mem.read<std::uint64_t>(0x1000));
}

TEST(CommitLogDeathTest, NonContiguousStoreBytesAreFatal)
{
    // The per-byte image names store 7 at 0x1000 and 0x1002: no store
    // covers a gap, so the loader must refuse it.
    const std::string path = ::testing::TempDir() + "commit_log_gap.ckpt";
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("log");
    w.put<std::uint64_t>(2);
    for (Addr a : {Addr{0x1000}, Addr{0x1002}}) {
        w.put(a);
        w.put<std::uint64_t>(1);
        w.put<SeqNum>(7);
        w.put<std::uint8_t>(0);
    }
    w.endSection();
    w.finish();

    auto load = [&path] {
        SimMemory mem;
        CommitLog log(mem);
        CkptReader r(path);
        r.readHeader();
        r.beginSection("log");
        log.loadState(r);
    };
    EXPECT_EXIT(load(), ::testing::ExitedWithCode(1),
                "in-flight store seq 7 does not cover 1 to 8 contiguous "
                "bytes \\(section 'log'\\)");
    ckptRemove(path);
}

TEST(EngineCommitLog, EngineRecordsStoresInLog)
{
    SimMemory mem;
    Program p = assemble("  li x1, 0x300000\n"
                         "  li x2, 77\n"
                         "  sd x2, 0(x1)\n"
                         "  halt\n");
    FunctionalEngine e(p, mem);
    e.reset(p.base());
    while (!e.halted())
        e.step();
    // Store executed functionally but never retired: committed view = 0.
    EXPECT_EQ(mem.read<std::uint64_t>(0x300000), 77u);
    EXPECT_EQ(e.commitLog().committedRead(0x300000, 8), 0u);
}

} // namespace
} // namespace pfm
