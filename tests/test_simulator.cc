/**
 * @file
 * Driver-level tests: option parsing of the paper's parameter notation,
 * warmup/measurement flow, perfBP/perfD$ modes.
 */

#include <gtest/gtest.h>

#include "identity.h"
#include "sim/simulator.h"

namespace pfm {
namespace {

TEST(Options, ParsesClkWidthTokens)
{
    SimOptions o;
    applyToken(o, "clk8_w3");
    EXPECT_EQ(o.pfm.clk_div, 8u);
    EXPECT_EQ(o.pfm.width, 3u);
}

TEST(Options, ParsesDelayQueuePort)
{
    SimOptions o;
    applyTokens(o, "delay8 queue16 portLS1");
    EXPECT_EQ(o.pfm.delay, 8u);
    EXPECT_EQ(o.pfm.queue_size, 16u);
    EXPECT_EQ(o.pfm.port, PortPolicy::kLs1);
}

TEST(Options, ParsesPerfectModes)
{
    SimOptions o;
    applyTokens(o, "perfBP perfD$");
    EXPECT_EQ(o.core.bp_kind, BpKind::kPerfect);
    EXPECT_TRUE(o.mem.perfect_dcache);
}

TEST(Options, TagRoundTrips)
{
    PfmParams p;
    p.clk_div = 4;
    p.width = 2;
    p.delay = 4;
    p.queue_size = 32;
    p.port = PortPolicy::kLs;
    EXPECT_EQ(p.tag(), "clk4_w2 delay4 queue32 portLS");
}

TEST(Simulator, BaselineAstarRuns)
{
    SimOptions o;
    o.workload = "astar";
    o.component = "none";
    o.warmup_instructions = 20'000;
    o.max_instructions = 100'000;
    SimResult r = runSim(o);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GE(r.instructions, 120'000u);
}

TEST(Simulator, PerfBpBeatsBaselineOnAstar)
{
    SimOptions base;
    base.workload = "astar";
    base.component = "none";
    base.warmup_instructions = 20'000;
    base.max_instructions = 150'000;
    SimOptions perf = base;
    applyToken(perf, "perfBP");
    SimResult rb = runSim(base);
    SimResult rp = runSim(perf);
    EXPECT_GT(speedupPct(rb, rp), 50.0);
}

TEST(Simulator, PerfDcacheBeatsBaselineOnBfs)
{
    SimOptions base;
    base.workload = "bfs-roads";
    base.component = "none";
    base.warmup_instructions = 20'000;
    base.max_instructions = 150'000;
    SimOptions perf = base;
    applyToken(perf, "perfD$");
    SimResult rb = runSim(base);
    SimResult rp = runSim(perf);
    EXPECT_GT(speedupPct(rb, rp), 30.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimOptions o;
    o.workload = "astar";
    o.component = "auto";
    o.warmup_instructions = 10'000;
    o.max_instructions = 80'000;
    Simulator a(o);
    Simulator b(o);
    expectSameRow(a.run(), b.run());
    expectSameMachine(a, b);
}

} // namespace
} // namespace pfm
