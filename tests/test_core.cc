/**
 * @file
 * Core timing-model tests: small kernels with known ILP/branch/memory
 * behaviour run end-to-end through the pipeline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "core/core.h"
#include "identity.h"
#include "isa/functional_engine.h"
#include "isa/assembler.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace {

struct CoreRun {
    std::unique_ptr<SimMemory> mem;
    std::unique_ptr<Program> prog;
    std::unique_ptr<FunctionalEngine> engine;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<Core> core;

    void
    build(const std::string& src, CoreParams cp = {},
          HierarchyParams hp = {})
    {
        mem = std::make_unique<SimMemory>();
        prog = std::make_unique<Program>(assemble(src));
        engine = std::make_unique<FunctionalEngine>(*prog, *mem);
        engine->reset(prog->base());
        hier = std::make_unique<Hierarchy>(hp);
        core = std::make_unique<Core>(cp, *engine, *hier);
    }

    void
    run(Cycle max_cycles = 1'000'000)
    {
        while (!core->done()) {
            core->tick();
            ASSERT_LT(core->cycle(), max_cycles) << "core did not finish";
        }
    }

    /**
     * Engine, hierarchy and core state, as the simulator sections it:
     * the one sequence behind both save() and digest().
     */
    void
    writeState(CkptWriter& w) const
    {
        w.writeHeader(CkptHeader{});
        w.beginSection("engine");
        engine->saveState(w);
        w.endSection();
        w.beginSection("memory");
        hier->saveState(w);
        w.endSection();
        w.beginSection("core");
        core->saveState(w);
        w.endSection();
    }

    void
    save(const std::string& path) const
    {
        CkptWriter w(path);
        writeState(w);
        w.finish();
    }

    void
    load(const std::string& path)
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("engine");
        engine->loadState(r);
        r.endSection();
        r.beginSection("memory");
        hier->loadState(r);
        r.endSection();
        r.beginSection("core");
        core->loadState(r);
        r.endSection();
    }

    /** One CRC per section of everything save() would write. */
    MachineDigest
    digest() const
    {
        CkptWriter w("");
        w.setDigestOnly();
        writeState(w);
        return w.digests();
    }
};

TEST(Core, RunsToHalt)
{
    CoreRun r;
    r.build("  li x1, 5\n  addi x1, x1, 1\n  halt\n");
    r.run();
    EXPECT_TRUE(r.core->done());
    EXPECT_EQ(r.core->retired(), 3u);
}

TEST(Core, IndependentOpsReachHighIpc)
{
    std::ostringstream os;
    for (int i = 0; i < 400; ++i)
        os << "  addi x" << (1 + i % 8) << ", x0, " << i << "\n";
    os << "  halt\n";
    CoreRun r;
    r.build(os.str());
    r.run();
    // 4-wide fetch bounds IPC at 4; independent ALU ops should get close.
    EXPECT_GT(r.core->ipc(), 3.0);
    EXPECT_LE(r.core->ipc(), 4.01);
}

TEST(Core, DependentChainSerializes)
{
    std::ostringstream os;
    os << "  li x1, 0\n";
    for (int i = 0; i < 400; ++i)
        os << "  addi x1, x1, 1\n";
    os << "  halt\n";
    CoreRun r;
    r.build(os.str());
    r.run();
    // One-cycle ALU chain: IPC ~1.
    EXPECT_LT(r.core->ipc(), 1.2);
    EXPECT_GT(r.core->ipc(), 0.8);
}

TEST(Core, PredictableLoopIsFast)
{
    CoreRun r;
    r.build("  li x2, 2000\n"
            "loop:\n"
            "  addi x3, x3, 1\n"
            "  addi x4, x4, 1\n"
            "  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n"
            "  halt\n");
    r.run();
    // TAGE learns the loop; only the exit mispredicts.
    EXPECT_LE(r.core->stats().get("branch_mispredicts"), 4u);
    EXPECT_GT(r.core->ipc(), 2.0);
}

TEST(Core, MispredictsSlowDataDependentBranches)
{
    // Branch depends on a pseudo-random value (xorshift on x5).
    CoreRun r;
    r.build("  li x2, 3000\n"
            "  li x5, 12345\n"
            "loop:\n"
            "  slli x6, x5, 13\n"
            "  xor x5, x5, x6\n"
            "  srli x6, x5, 7\n"
            "  xor x5, x5, x6\n"
            "  andi x7, x5, 1\n"
            "  beq x7, x0, skip\n"
            "  addi x8, x8, 1\n"
            "skip:\n"
            "  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n"
            "  halt\n");
    r.run();
    double mpki = r.core->mpki();
    EXPECT_GT(mpki, 20.0); // ~1 mispredict / ~2 per 10 instructions
}

TEST(Core, PerfectBpRemovesMispredicts)
{
    CoreParams cp;
    cp.bp_kind = BpKind::kPerfect;
    CoreRun r;
    r.build("  li x2, 3000\n"
            "  li x5, 12345\n"
            "loop:\n"
            "  slli x6, x5, 13\n"
            "  xor x5, x5, x6\n"
            "  srli x6, x5, 7\n"
            "  xor x5, x5, x6\n"
            "  andi x7, x5, 1\n"
            "  beq x7, x0, skip\n"
            "  addi x8, x8, 1\n"
            "skip:\n"
            "  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n"
            "  halt\n",
            cp);
    r.run();
    EXPECT_EQ(r.core->stats().get("branch_mispredicts"), 0u);
}

TEST(Core, CacheMissStallsDependentLoad)
{
    // Pointer chase through cold memory: each load misses to DRAM.
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    std::ostringstream os;
    os << "  li x1, 0x400000\n";
    for (int i = 0; i < 64; ++i)
        os << "  ld x1, 0(x1)\n"; // chases zero pointers -> address 0 after 1st
    os << "  halt\n";
    // Build the chain in memory: a->b->c ... distinct lines.
    CoreRun rr;
    rr.build(os.str(), CoreParams{}, hp);
    Addr a = 0x400000;
    for (int i = 0; i < 64; ++i) {
        Addr next = 0x400000 + static_cast<Addr>(i + 1) * 4096;
        rr.mem->write<std::uint64_t>(a, next);
        a = next;
    }
    // Rebuild engine state after memory init (engine caches nothing, but
    // the functional engine must re-run from entry).
    rr.engine->reset(rr.prog->base());
    rr.run(5'000'000);
    double cpi = 1.0 / rr.core->ipc();
    // Each of the 64 loads costs ~292 cycles serialized.
    EXPECT_GT(cpi, 100.0);
}

TEST(Core, IndependentMissesOverlapMlp)
{
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    std::ostringstream os;
    os << "  li x1, 0x400000\n";
    // 32 independent loads to distinct pages.
    for (int i = 0; i < 32; ++i)
        os << "  ld x" << (2 + i % 8) << ", " << i * 4096 << "(x1)\n";
    os << "  halt\n";
    CoreRun r;
    r.build(os.str(), CoreParams{}, hp);
    r.run();
    // With MLP the whole run takes ~1 miss latency plus bandwidth, far
    // below 32 serialized misses (~9000 cycles).
    EXPECT_LT(r.core->cycle(), 1500u);
}

TEST(Core, StoreToLoadForwardingIsFast)
{
    // A static store->load pair in a loop. The store's data depends on a
    // DRAM-missing load, so the store is still in flight (unretired and
    // late-completing) when the aliased load wants its value: after the
    // store-set predictor learns the dependence (first violation), the
    // load waits for the store and then forwards from the STQ.
    CoreRun r;
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    r.build("  li x1, 0x400000\n"
            "  li x20, 0x4000000\n"
            "  li x2, 7\n"
            "  li x4, 200\n"
            "loop:\n"
            "  ld x9, 0(x20)\n"        // cold miss: blocks retirement
            "  add x2, x2, x9\n"
            "  sd x2, 0(x1)\n"
            "  ld x3, 0(x1)\n"         // aliased: must forward
            "  addi x2, x3, 1\n"
            "  addi x1, x1, 8\n"
            "  addi x20, x20, 4096\n"
            "  addi x4, x4, -1\n"
            "  bne x4, x0, loop\n"
            "  halt\n",
            CoreParams{}, hp);
    r.run(10'000'000);
    EXPECT_GT(r.core->stats().get("stl_forwards"), 150u);
    EXPECT_LT(r.core->stats().get("memory_violations"), 10u);
}

TEST(Core, RegisterValuesArchitecturallyCorrectUnderTiming)
{
    // The timing model must not corrupt functional results even across
    // squashes; verify a checksum computed by the program itself.
    CoreRun r;
    r.build("  li x1, 0\n"
            "  li x2, 500\n"
            "  li x5, 99\n"
            "loop:\n"
            "  xor x5, x5, x2\n"
            "  slli x6, x5, 3\n"
            "  srli x7, x5, 2\n"
            "  add x1, x1, x6\n"
            "  sub x1, x1, x7\n"
            "  andi x8, x1, 63\n"
            "  beq x8, x0, even\n"
            "  addi x1, x1, 3\n"
            "even:\n"
            "  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n"
            "  sd x1, 0(x0)\n"
            "  halt\n");
    // Compute the expected value with a plain interpreter.
    SimMemory ref_mem;
    FunctionalEngine ref(*r.prog, ref_mem);
    ref.reset(r.prog->base());
    while (!ref.halted())
        ref.step();
    r.run(10'000'000);
    EXPECT_EQ(r.mem->read<std::uint64_t>(0),
              ref_mem.read<std::uint64_t>(0));
}

TEST(Core, RetireWidthBoundsIpc)
{
    CoreParams cp;
    cp.retire_width = 2;
    cp.fetch_width = 2;
    std::ostringstream os;
    for (int i = 0; i < 400; ++i)
        os << "  addi x" << (1 + i % 8) << ", x0, 1\n";
    os << "  halt\n";
    CoreRun r;
    r.build(os.str(), cp);
    r.run();
    EXPECT_LE(r.core->ipc(), 2.01);
}

TEST(Core, HooksSeeRetirementInOrder)
{
    class OrderHooks : public CoreHooks
    {
      public:
        SeqNum last = 0;
        bool ok = true;
        RetireDecision
        onRetire(const DynInst& d, Cycle) override
        {
            if (d.seq < last)
                ok = false;
            last = d.seq;
            return {};
        }
    };
    CoreRun r;
    r.build("  li x2, 100\nloop:\n  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n  halt\n");
    OrderHooks hooks;
    r.core->setHooks(&hooks);
    r.run();
    EXPECT_TRUE(hooks.ok);
}

TEST(CoreSlab, TinyWindowWrapsRingManyTimes)
{
    // A tiny ROB + frontend buffer forces the InstRec slab ring to wrap
    // every few instructions; a long dependent kernel then checks that
    // slot recycling never corrupts architectural results or counts.
    CoreParams cp;
    cp.rob_size = 8;
    cp.frontend_buffer = 4;
    CoreRun r;
    r.build("  li x1, 0\n"
            "  li x2, 2000\n"
            "loop:\n"
            "  addi x1, x1, 3\n"
            "  slli x3, x1, 1\n"
            "  sub x1, x3, x1\n"
            "  addi x2, x2, -1\n"
            "  bne x2, x0, loop\n"
            "  sd x1, 0(x0)\n"
            "  halt\n",
            cp);
    r.run(10'000'000);
    // 2 setup + 5*2000 loop body + store + halt.
    EXPECT_EQ(r.core->retired(), 2u + 5u * 2000u + 2u);
    SimMemory ref_mem;
    FunctionalEngine ref(*r.prog, ref_mem);
    ref.reset(r.prog->base());
    while (!ref.halted())
        ref.step();
    EXPECT_EQ(r.mem->read<std::uint64_t>(0),
              ref_mem.read<std::uint64_t>(0));
}

TEST(CoreSlab, SquashRecyclesSlotsInPlace)
{
    // Squash-heavy run on a tiny window: memory-order violations (a slow
    // store feeding a younger aliased load) plus data-dependent branch
    // mispredicts keep rewinding the slab's dispatch/fetch ends, so
    // squashed slots are recycled in place over and over. Architectural
    // results and the retired count must stay exact.
    CoreParams cp;
    cp.rob_size = 16;
    cp.frontend_buffer = 8;
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    CoreRun r;
    r.build("  li x1, 0x400000\n"
            "  li x20, 0x4000000\n"
            "  li x2, 7\n"
            "  li x4, 150\n"
            "  li x10, 9\n"
            "loop:\n"
            "  ld x9, 0(x20)\n"      // cold miss: store data arrives late
            "  add x2, x2, x9\n"
            "  sd x2, 0(x1)\n"
            "  ld x3, 0(x1)\n"       // aliased younger load -> violation
            "  addi x2, x3, 1\n"
            "  slli x11, x10, 13\n"  // xorshift: unpredictable branch
            "  xor x10, x10, x11\n"
            "  srli x11, x10, 7\n"
            "  xor x10, x10, x11\n"
            "  andi x12, x10, 1\n"
            "  beq x12, x0, skip\n"
            "  addi x2, x2, 5\n"
            "skip:\n"
            "  addi x1, x1, 8\n"
            "  addi x20, x20, 4096\n"
            "  addi x4, x4, -1\n"
            "  bne x4, x0, loop\n"
            "  sd x2, 0(x0)\n"
            "  halt\n",
            cp, hp);
    r.run(20'000'000);
    EXPECT_GT(r.core->stats().get("memory_violations"), 0u);
    EXPECT_GT(r.core->stats().get("squashed_instrs"), 0u);
    SimMemory ref_mem;
    FunctionalEngine ref(*r.prog, ref_mem);
    ref.reset(r.prog->base());
    std::uint64_t ref_count = 0;
    while (!ref.halted()) {
        ref.step();
        ++ref_count;
    }
    EXPECT_EQ(r.mem->read<std::uint64_t>(0),
              ref_mem.read<std::uint64_t>(0));
    // Exact retired count: the timing model retires each program-order
    // instruction exactly once regardless of how many times its slot was
    // squashed and refetched.
    EXPECT_EQ(r.core->retired(), ref_count);
}

TEST(CoreSlab, SquashedWaitersUnlinkReplayAndRestore)
{
    // Each iteration's DRAM-missing load L feeds a chain of consumers that
    // sit on L's wait list for hundreds of cycles (the first one reads L
    // twice: src1 == src2). An aliased load V, older than the chain but
    // younger than L, issues before its store's divide-fed data is ready,
    // so the store's completion squashes from V: the chain is unlinked
    // from L while L survives, then replays and re-waits on it. Save and
    // restore at many points (waiters linked, mid-replay, ...) must each
    // continue exactly like the uninterrupted run.
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    const std::string src = "  li x1, 0x400000\n"
                            "  li x20, 0x4000000\n"
                            "  li x4, 24\n"
                            "  li x13, 7000\n"
                            "  li x14, 3\n"
                            "loop:\n"
                            "  ld x9, 0(x20)\n"     // L: cold DRAM miss
                            "  div x15, x13, x14\n" // slow store data
                            "  div x15, x15, x14\n"
                            "  add x15, x15, x4\n"
                            "  sd x15, 0(x1)\n"
                            "  ld x3, 0(x1)\n"      // V: aliased, early
                            "  add x5, x9, x9\n"    // waits on L twice
                            "  add x6, x5, x3\n"
                            "  add x7, x6, x9\n"
                            "  add x8, x7, x5\n"
                            "  add x2, x2, x8\n"
                            "  addi x1, x1, 8\n"
                            "  addi x20, x20, 4096\n"
                            "  addi x4, x4, -1\n"
                            "  bne x4, x0, loop\n"
                            "  sd x2, 0(x0)\n"
                            "  halt\n";

    CoreRun ref;
    ref.build(src, CoreParams{}, hp);
    ASSERT_NO_FATAL_FAILURE(ref.run());
    EXPECT_GT(ref.core->stats().get("memory_violations"), 0u);
    EXPECT_GT(ref.core->stats().get("squashed_instrs"), 0u);
    const MachineDigest want = ref.digest();

    // Pinned timing of this kernel: oldest-first select, wake at producer
    // completion and the squash replay all show in these numbers.
    EXPECT_EQ(ref.core->cycle(), 672u);
    EXPECT_EQ(ref.core->stats().get("issued"), 411u);
    EXPECT_EQ(ref.core->stats().get("memory_violations"), 1u);
    EXPECT_EQ(ref.core->stats().get("squashed_instrs"), 112u);

    const std::string path = ::testing::TempDir() + "core_waiters.ckpt";
    for (Cycle at = 25; at < ref.core->cycle(); at += 61) {
        SCOPED_TRACE(at);
        CoreRun a;
        a.build(src, CoreParams{}, hp);
        while (a.core->cycle() < at)
            a.core->tick();
        a.save(path);
        CoreRun b;
        b.build(src, CoreParams{}, hp);
        b.load(path);
        b.run();
        expectSameMachine(want, b.digest());
        EXPECT_EQ(ref.mem->read<std::uint64_t>(0),
                  b.mem->read<std::uint64_t>(0));
    }
    ckptRemove(path);
}

} // namespace
} // namespace pfm
