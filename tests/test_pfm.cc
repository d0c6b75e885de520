/**
 * @file
 * Unit tests for the PFM agents: FST/RST matching, queue flow control,
 * pop-position rollback, missed-load buffer, port policies, and the
 * watchdog chicken-switch.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "pfm/fetch_agent.h"
#include "pfm/load_agent.h"
#include "pfm/retire_agent.h"

namespace pfm {
namespace {

DynInst
fakeBranch(Addr pc, SeqNum seq)
{
    static Program prog = assemble("b: beq x0, x0, b\n");
    DynInst d;
    d.pc = pc;
    d.seq = seq;
    d.inst = &prog.inst(0);
    return d;
}

class FetchAgentTest : public ::testing::Test
{
  protected:
    FetchAgentTest() : stats_("t."), agent_(params(), stats_)
    {
        agent_.fst().add(0x100);
        agent_.setEnabled(true);
    }

    static PfmParams
    params()
    {
        PfmParams p;
        p.queue_size = 4;
        return p;
    }

    StatGroup stats_;
    FetchAgent agent_;
};

TEST_F(FetchAgentTest, MissesNonFstBranches)
{
    auto dec = agent_.onBranchFetch(fakeBranch(0x200, 1), 10);
    EXPECT_FALSE(dec.hit);
}

TEST_F(FetchAgentTest, StallsOnEmptyQueue)
{
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    EXPECT_TRUE(dec.hit);
    EXPECT_TRUE(dec.stall);
}

TEST_F(FetchAgentTest, PopsInFifoOrder)
{
    agent_.pushPrediction(true, 5);
    agent_.pushPrediction(false, 5);
    auto d1 = agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    auto d2 = agent_.onBranchFetch(fakeBranch(0x100, 2), 10);
    EXPECT_TRUE(d1.dir);
    EXPECT_FALSE(d2.dir);
    EXPECT_EQ(agent_.popCount(), 2u);
}

TEST_F(FetchAgentTest, StallsOnLatePrediction)
{
    // Pushed at 100: the port's CDC stamp makes it visible at 101.
    agent_.pushPrediction(true, 100);
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    EXPECT_TRUE(dec.stall);
    dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 100);
    EXPECT_TRUE(dec.stall);
    dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 101);
    EXPECT_FALSE(dec.stall);
}

TEST_F(FetchAgentTest, QueueCapacityEnforced)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(agent_.pushPrediction(true, 0));
    EXPECT_FALSE(agent_.pushPrediction(true, 0));
}

TEST_F(FetchAgentTest, RollbackUnpopsSquashedBranches)
{
    for (int i = 0; i < 4; ++i)
        agent_.pushPrediction(i % 2 == 0, 0);
    agent_.onBranchFetch(fakeBranch(0x100, 10), 5);
    agent_.onBranchFetch(fakeBranch(0x100, 11), 5);
    agent_.onBranchFetch(fakeBranch(0x100, 12), 5);
    // Squash keeps seq <= 10: branches 11, 12 un-pop.
    std::uint64_t pos = agent_.flushAndRollback(10);
    EXPECT_EQ(pos, 1u);
    EXPECT_EQ(agent_.popCount(), 1u);
    EXPECT_EQ(agent_.pushCount(), 1u); // queue flushed to position
}

TEST_F(FetchAgentTest, WatchdogDisablesAfterTimeout)
{
    PfmParams p = params();
    p.watchdog_cycles = 50;
    StatGroup st("w.");
    FetchAgent a(p, st);
    a.fst().add(0x100);
    a.setEnabled(true);
    for (Cycle c = 0; c <= 60; ++c)
        a.onBranchFetch(fakeBranch(0x100, 1), c);
    EXPECT_FALSE(a.enabled());
    auto dec = a.onBranchFetch(fakeBranch(0x100, 2), 100);
    EXPECT_FALSE(dec.hit);
    EXPECT_EQ(st.get("watchdog_disables"), 1u);
}

class LoadAgentTest : public ::testing::Test
{
  protected:
    LoadAgentTest()
        : stats_("t."),
          hier_(hparams()),
          log_(mem_),
          agent_(pparams(), hier_, log_, stats_)
    {}

    static HierarchyParams
    hparams()
    {
        HierarchyParams p;
        p.l1d_next_n = 0;
        p.vldp_enabled = false;
        return p;
    }

    static PfmParams
    pparams()
    {
        PfmParams p;
        p.queue_size = 8;
        p.mlb_entries = 4;
        return p;
    }

    StatGroup stats_;
    SimMemory mem_;
    Hierarchy hier_;
    CommitLog log_;
    LoadAgent agent_;
};

TEST_F(LoadAgentTest, HitReturnsValueWithCacheLatency)
{
    mem_.write<std::uint32_t>(0x1000, 77);
    hier_.warm(0x1000);
    agent_.pushRequest({1, 0x1000, 4, false}, 10);
    agent_.onCycle(10, 1);
    LoadReturn r;
    EXPECT_FALSE(agent_.popReturn(r, 10)); // data not ready yet
    ASSERT_TRUE(agent_.popReturn(r, 13));  // 1 TLB + 2 L1
    EXPECT_EQ(r.id, 1u);
    EXPECT_EQ(r.value, 77u);
}

TEST_F(LoadAgentTest, MissGoesThroughMlbAndReplays)
{
    mem_.write<std::uint32_t>(0x900000, 5);
    agent_.pushRequest({7, 0x900000, 4, false}, 0);
    agent_.onCycle(0, 1);
    EXPECT_EQ(stats_.get("mlb_allocations"), 1u);
    LoadReturn r;
    bool got = false;
    for (Cycle c = 1; c < 1000 && !got; ++c) {
        agent_.onCycle(c, 1);
        got = agent_.popReturn(r, c);
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(r.value, 5u);
    EXPECT_GE(stats_.get("mlb_replays_hit"), 1u);
}

TEST_F(LoadAgentTest, ValuesAreCommittedView)
{
    mem_.write<std::uint32_t>(0x1000, 1);
    hier_.warm(0x1000);
    // An in-flight (unretired) store changes functional memory.
    log_.recordStore(55, 0x1000, 4);
    mem_.write<std::uint32_t>(0x1000, 2);

    agent_.pushRequest({3, 0x1000, 4, false}, 0);
    agent_.onCycle(0, 1);
    LoadReturn r;
    ASSERT_TRUE(agent_.popReturn(r, 10));
    EXPECT_EQ(r.value, 1u); // pre-store value: no SQ search
}

TEST_F(LoadAgentTest, PrefetchProducesNoReturn)
{
    agent_.pushRequest({9, 0x2000, 8, true}, 0);
    agent_.onCycle(0, 2);
    LoadReturn r;
    for (Cycle c = 0; c < 600; ++c)
        ASSERT_FALSE(agent_.popReturn(r, c));
    // Agent prefetches fill L2/L3 (prefetch-to-L2 policy), not L1.
    EXPECT_TRUE(hier_.l2().contains(0x2000));
    EXPECT_FALSE(hier_.l1d().contains(0x2000));
}

TEST_F(LoadAgentTest, NoFreeSlotsNoInjection)
{
    agent_.pushRequest({1, 0x1000, 4, false}, 0);
    agent_.onCycle(0, 0);
    LoadReturn r;
    EXPECT_FALSE(agent_.popReturn(r, 500));
}

class RetireAgentTest : public ::testing::Test
{
  protected:
    RetireAgentTest() : stats_("t."), agent_(pparams(), stats_, usage_)
    {
        prog_ = assemble("a: addi x1, x0, 5\n"
                         "b: sd x1, 0(x2)\n"
                         "c: beq x1, x0, a\n");
    }

    static PfmParams
    pparams()
    {
        PfmParams p;
        p.queue_size = 2;
        return p;
    }

    DynInst
    dyn(size_t idx, SeqNum seq)
    {
        DynInst d;
        d.inst = &prog_.inst(idx);
        d.pc = prog_.pcOf(idx);
        d.seq = seq;
        d.result = 5;
        d.store_val = 9;
        d.mem_addr = 0x40;
        d.taken = true;
        return d;
    }

    IssueUsage usage_; ///< stands in for Core::laneUsage()
    StatGroup stats_;
    RetireAgent agent_;
    Program prog_;
};

TEST_F(RetireAgentTest, RoiBeginEnablesAndEmitsPacket)
{
    RstEntry e;
    e.roi_begin = true;
    agent_.rst().add(prog_.pcOf(0), e);

    RetireDecision dec;
    bool roi = false;
    agent_.onRetire(dyn(0, 1), 10, dec, roi);
    EXPECT_TRUE(roi);
    EXPECT_TRUE(agent_.roiActive());
    ObsPacket p;
    ASSERT_TRUE(agent_.popObservation(p, 11));
    EXPECT_EQ(p.type, ObsType::kRoiBegin);
    EXPECT_EQ(p.value, 5u);
}

TEST_F(RetireAgentTest, PreRoiSnoopsAreIgnored)
{
    RstEntry e;
    e.type = ObsType::kDestValue;
    agent_.rst().add(prog_.pcOf(0), e);
    RetireDecision dec;
    bool roi;
    agent_.onRetire(dyn(0, 1), 10, dec, roi);
    ObsPacket p;
    EXPECT_FALSE(agent_.popObservation(p, 20));
}

TEST_F(RetireAgentTest, QueueFullStallsRetire)
{
    RstEntry begin;
    begin.roi_begin = true;
    agent_.rst().add(prog_.pcOf(0), begin);
    RstEntry e;
    e.type = ObsType::kStoreValue;
    agent_.rst().add(prog_.pcOf(1), e);

    RetireDecision dec;
    bool roi;
    agent_.onRetire(dyn(0, 1), 10, dec, roi); // queue: [RoiBegin]
    agent_.onRetire(dyn(1, 2), 11, dec, roi); // queue: [RoiBegin, Store]
    EXPECT_TRUE(dec.allow);
    agent_.onRetire(dyn(1, 3), 12, dec, roi); // full -> stall
    EXPECT_FALSE(dec.allow);
    EXPECT_EQ(dec.retry_at, 13u);
    EXPECT_EQ(stats_.get("port.obsq_r.full_stalls"), 1u);
}

TEST_F(RetireAgentTest, PortLs1NeedsIdleLsLane)
{
    PfmParams p = pparams();
    p.port = PortPolicy::kLs1;
    StatGroup st("p.");
    IssueUsage usage;
    RetireAgent a(p, st, usage);
    RstEntry begin;
    begin.roi_begin = true;
    a.rst().add(prog_.pcOf(0), begin);

    usage.ls = 1; // an LS lane read the PRF last cycle
    RetireDecision dec;
    bool roi;
    a.onRetire(dyn(0, 1), 10, dec, roi);
    EXPECT_FALSE(dec.allow); // dest-value packet needs the LS port

    usage = IssueUsage{};
    a.onRetire(dyn(0, 1), 11, dec, roi);
    EXPECT_TRUE(dec.allow);
}

TEST_F(RetireAgentTest, BranchOutcomePacketCarriesDirection)
{
    RstEntry begin;
    begin.roi_begin = true;
    agent_.rst().add(prog_.pcOf(0), begin);
    RstEntry e;
    e.type = ObsType::kBranchOutcome;
    agent_.rst().add(prog_.pcOf(2), e);

    RetireDecision dec;
    bool roi;
    agent_.onRetire(dyn(0, 1), 10, dec, roi);
    agent_.onRetire(dyn(2, 2), 11, dec, roi);
    ObsPacket p;
    ASSERT_TRUE(agent_.popObservation(p, 12));
    ASSERT_TRUE(agent_.popObservation(p, 12));
    EXPECT_EQ(p.type, ObsType::kBranchOutcome);
    EXPECT_TRUE(p.taken);
}

TEST_F(RetireAgentTest, CountOnlyEntriesBumpCounters)
{
    RstEntry begin;
    begin.roi_begin = true;
    agent_.rst().add(prog_.pcOf(0), begin);
    RstEntry e;
    e.count_only = true;
    agent_.rst().add(prog_.pcOf(1), e);

    RetireDecision dec;
    bool roi;
    agent_.onRetire(dyn(0, 1), 10, dec, roi);
    for (SeqNum s = 2; s < 12; ++s)
        agent_.onRetire(dyn(1, s), 10 + s, dec, roi);
    EXPECT_EQ(agent_.countFor(prog_.pcOf(1)), 10u);
    // No packets beyond the RoiBegin one.
    ObsPacket p;
    EXPECT_TRUE(agent_.popObservation(p, 100));
    EXPECT_FALSE(agent_.popObservation(p, 100));
}

} // namespace
} // namespace pfm
