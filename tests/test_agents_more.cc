/**
 * @file
 * Additional agent tests: the non-stalling Fetch Agent variant
 * (Section 2.4), Load Agent MLB capacity behaviour, Retire Agent port
 * policies across the full sweep, and the component base class's replay
 * log machinery.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "pfm/component.h"
#include "pfm/fetch_agent.h"
#include "pfm/load_agent.h"
#include "pfm/pfm_system.h"

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

class NonStallingFetchTest : public ::testing::Test
{
  protected:
    NonStallingFetchTest() : stats_("t."), agent_(params(), stats_)
    {
        agent_.fst().add(0x100);
        agent_.setEnabled(true);
    }

    static PfmParams
    params()
    {
        PfmParams p;
        p.queue_size = 4;
        p.non_stalling_fetch = true;
        return p;
    }

    StatGroup stats_;
    FetchAgent agent_;
};

TEST_F(NonStallingFetchTest, NeverStalls)
{
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    EXPECT_FALSE(dec.stall);
    EXPECT_FALSE(dec.hit); // core predictor used
    EXPECT_EQ(stats_.get("late_packet_drops"), 1u);
}

TEST_F(NonStallingFetchTest, LateArrivalsAreSwallowed)
{
    // Branch goes past with the core's prediction...
    agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    EXPECT_EQ(agent_.popCount(), 1u);
    // ...and when the component finally pushes that position, it's dropped.
    EXPECT_TRUE(agent_.pushPrediction(true, 20));
    // A subsequent timely prediction is delivered normally.
    EXPECT_TRUE(agent_.pushPrediction(false, 20));
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 2), 30);
    EXPECT_TRUE(dec.hit);
    EXPECT_FALSE(dec.dir);
}

TEST_F(NonStallingFetchTest, QueuedButLatePacketIsDroppedInline)
{
    agent_.pushPrediction(true, 100); // will be late at cycle 10
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 1), 10);
    EXPECT_FALSE(dec.hit);
    // The late packet was consumed; the queue is empty again.
    EXPECT_EQ(agent_.freeSlots(), 4u);
}

TEST_F(NonStallingFetchTest, PositionsStayAligned)
{
    // Drop two, then deliver two; positions must line up.
    agent_.onBranchFetch(fakeBranch(0x100, 1), 5);
    agent_.onBranchFetch(fakeBranch(0x100, 2), 6);
    EXPECT_EQ(agent_.popCount(), 2u);
    EXPECT_TRUE(agent_.pushPrediction(true, 7));  // pos 0: swallowed
    EXPECT_TRUE(agent_.pushPrediction(true, 7));  // pos 1: swallowed
    EXPECT_TRUE(agent_.pushPrediction(false, 7)); // pos 2: queued
    auto dec = agent_.onBranchFetch(fakeBranch(0x100, 3), 8);
    EXPECT_TRUE(dec.hit);
    EXPECT_FALSE(dec.dir);
    EXPECT_EQ(agent_.popCount(), 3u);
}

// ---------------------------------------------------------------------------

class MlbCapacityTest : public ::testing::Test
{
  protected:
    MlbCapacityTest()
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
        p.queue_size = 16;
        p.mlb_entries = 2;
        return p;
    }

    StatGroup stats_;
    SimMemory mem_;
    Hierarchy hier_;
    CommitLog log_;
    LoadAgent agent_;
};

TEST_F(MlbCapacityTest, FullMlbBlocksFurtherMissingLoads)
{
    // Three cold loads with a 2-entry MLB: the third stays in IntQ-IS.
    for (std::uint64_t i = 0; i < 3; ++i)
        agent_.pushRequest({i, 0x800000 + i * 4096, 4, false}, 0);
    agent_.onCycle(0, 2);
    agent_.onCycle(1, 2);
    EXPECT_EQ(stats_.get("mlb_allocations"), 2u);
    EXPECT_GE(stats_.get("mlb_full_stalls"), 1u);

    // Eventually the fills land, the MLB drains, and all three return.
    unsigned returns = 0;
    LoadReturn r;
    for (Cycle c = 2; c < 2000; ++c) {
        agent_.onCycle(c, 2);
        while (agent_.popReturn(r, c))
            ++returns;
    }
    EXPECT_EQ(returns, 3u);
}

TEST_F(MlbCapacityTest, PrefetchesBypassTheMlb)
{
    for (std::uint64_t i = 0; i < 6; ++i)
        agent_.pushRequest({i, 0x900000 + i * 4096, 8, true}, 0);
    for (Cycle c = 0; c < 10; ++c)
        agent_.onCycle(c, 2);
    EXPECT_EQ(stats_.get("mlb_allocations"), 0u);
    EXPECT_EQ(stats_.get("agent_prefetches"), 6u);
}

// ---------------------------------------------------------------------------
// Component base class: replay-log surgery invariants.

class LogComponent : public CustomComponent
{
  public:
    LogComponent() : CustomComponent("log-test") {}

    using CustomComponent::emitPrediction;
    using CustomComponent::genPos;
    using CustomComponent::logDirAt;
    using CustomComponent::logEraseAt;
    using CustomComponent::logInsertAt;
    using CustomComponent::logMetaAt;

    void rfStep(Cycle) override {}
    void onObservation(const ObsPacket&, Cycle) override {}

    void
    stepOnce(Cycle now)
    {
        step(now);
    }
};

class ComponentLogTest : public ::testing::Test
{
  protected:
    ComponentLogTest()
        : params_(),
          stats_("t."),
          fetch_(params_, stats_),
          retire_(params_, stats_, usage_),
          mem_(HierarchyParams{}),
          log_(simmem_),
          load_(params_, mem_, log_, stats_)
    {
        comp_.attach(&fetch_, &retire_, &load_, &params_, &stats_);
        fetch_.setEnabled(true);
        comp_.stepOnce(0); // initialize per-step budgets
    }

    PfmParams params_;
    StatGroup stats_;
    FetchAgent fetch_;
    IssueUsage usage_;
    RetireAgent retire_;
    SimMemory simmem_;
    Hierarchy mem_;
    CommitLog log_;
    LoadAgent load_;
    LogComponent comp_;
};

TEST_F(ComponentLogTest, EmitAppendsToLogAndQueue)
{
    EXPECT_TRUE(comp_.emitPrediction(true, 0, 7));
    EXPECT_TRUE(comp_.emitPrediction(false, 0, 9));
    EXPECT_EQ(comp_.genPos(), 2u);
    EXPECT_TRUE(comp_.logDirAt(0));
    EXPECT_FALSE(comp_.logDirAt(1));
    EXPECT_EQ(comp_.logMetaAt(0), 7u);
    EXPECT_EQ(comp_.logMetaAt(1), 9u);
}

TEST_F(ComponentLogTest, WidthBudgetCapsEmissionPerRfCycle)
{
    unsigned emitted = 0;
    while (comp_.emitPrediction(true, 0))
        ++emitted;
    EXPECT_EQ(emitted, params_.width);
    comp_.stepOnce(params_.clk_div); // new RF cycle: budget refills
    EXPECT_TRUE(comp_.emitPrediction(true, 4));
}

TEST_F(ComponentLogTest, InsertAndEraseShiftPositions)
{
    comp_.emitPrediction(true, 0, 1);
    comp_.emitPrediction(true, 0, 2);
    comp_.logInsertAt(1, false, 99);
    EXPECT_EQ(comp_.genPos(), 3u);
    EXPECT_EQ(comp_.logMetaAt(1), 99u);
    EXPECT_EQ(comp_.logMetaAt(2), 2u);
    comp_.logEraseAt(1);
    EXPECT_EQ(comp_.genPos(), 2u);
    EXPECT_EQ(comp_.logMetaAt(1), 2u);
}

TEST_F(ComponentLogTest, SquashReplaysRecordedPredictions)
{
    comp_.emitPrediction(true, 0);
    comp_.emitPrediction(false, 0);
    comp_.emitPrediction(true, 0);
    // Fetch consumes one...
    fetch_.fst().add(0x100);
    auto d1 = fetch_.onBranchFetch(fakeBranch(0x100, 1), 5);
    EXPECT_TRUE(d1.hit);
    // ...then a squash keeps seq <= 1 and rolls the stream back.
    SquashInfo info;
    info.rollback_pos = fetch_.flushAndRollback(1);
    EXPECT_EQ(info.rollback_pos, 1u);
    comp_.squash(5, info);
    // The replay drains over subsequent RF cycles.
    comp_.stepOnce(8);
    auto d2 = fetch_.onBranchFetch(fakeBranch(0x100, 2), 20);
    ASSERT_TRUE(d2.hit);
    EXPECT_FALSE(d2.dir); // the recorded position-1 value
    auto d3 = fetch_.onBranchFetch(fakeBranch(0x100, 3), 20);
    ASSERT_TRUE(d3.hit);
    EXPECT_TRUE(d3.dir);
}

} // namespace
} // namespace pfm
