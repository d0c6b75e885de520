/**
 * @file
 * Whole-system integration tests: the PFM machinery may only affect
 * *timing*, never architectural results; runs must be deterministic and
 * deadlock-free across the full configuration space.
 */

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "workloads/registry.h"

namespace pfm {
namespace {

SimOptions
quick(const std::string& workload, const std::string& component,
      const std::string& tokens = "")
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = 20'000;
    o.max_instructions = 120'000;
    if (!tokens.empty())
        applyTokens(o, tokens);
    return o;
}

/** Run and return the final architectural memory checksum of a region. */
std::uint64_t
finalStateChecksum(const SimOptions& opt, const std::string& region,
                   std::uint64_t bytes)
{
    Simulator sim(opt);
    sim.run();
    Addr base = sim.workload().dataAddr(region);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < bytes; i += 8) {
        h ^= sim.workload().mem->read<std::uint64_t>(base + i);
        h *= 0x2545F4914F6CDD1DULL;
    }
    return h;
}

TEST(Integration, PfmNeverChangesAstarArchitecturalState)
{
    // The custom component intervenes microarchitecturally only: after
    // the same instruction count, the waymap contents must be identical
    // with and without the component (and with astar-alt).
    std::uint64_t base =
        finalStateChecksum(quick("astar", "none"), "waymap", 1 << 16);
    std::uint64_t with =
        finalStateChecksum(quick("astar", "auto"), "waymap", 1 << 16);
    std::uint64_t alt =
        finalStateChecksum(quick("astar", "alt"), "waymap", 1 << 16);
    EXPECT_EQ(base, with);
    EXPECT_EQ(base, alt);
}

TEST(Integration, PfmNeverChangesBfsArchitecturalState)
{
    std::uint64_t base =
        finalStateChecksum(quick("bfs-roads", "none"), "parent", 1 << 16);
    std::uint64_t with =
        finalStateChecksum(quick("bfs-roads", "auto"), "parent", 1 << 16);
    EXPECT_EQ(base, with);
}

TEST(Integration, PrefetchersNeverChangeArchitecturalState)
{
    for (const char* wl : {"libquantum", "milc"}) {
        SCOPED_TRACE(wl);
        std::string region = wl == std::string("libquantum") ? "reg" : "c";
        std::uint64_t base =
            finalStateChecksum(quick(wl, "none"), region, 1 << 15);
        std::uint64_t with =
            finalStateChecksum(quick(wl, "auto"), region, 1 << 15);
        EXPECT_EQ(base, with);
    }
}

// ---------------------------------------------------------------------------
// Deadlock-freedom sweep: every workload x component x clk/width config
// must make continuous forward progress. (The deadlock watchdog inside
// Simulator::run panics if retirement ever stops.)

struct SweepCase {
    const char* workload;
    const char* component;
    const char* tokens;
};

// Prints the case by value, so the test name that ctest lists does not
// carry the string pointers (which move with every build and run).
void PrintTo(const SweepCase& c, std::ostream* os)
{
    *os << c.workload << '/' << c.component << '/' << c.tokens;
}

class NoDeadlockSweep : public ::testing::TestWithParam<SweepCase>
{};

TEST_P(NoDeadlockSweep, RunsToBudget)
{
    const SweepCase& c = GetParam();
    SimOptions o = quick(c.workload, c.component, c.tokens);
    o.max_instructions = 60'000;
    o.deadlock_cycles = 500'000;
    SimResult r = runSim(o);
    EXPECT_GT(r.ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NoDeadlockSweep,
    ::testing::Values(
        SweepCase{"astar", "auto", "clk1_w1"},
        SweepCase{"astar", "auto", "clk8_w1 delay8 queue8"},
        SweepCase{"astar", "auto", "clk4_w4 delay8 queue8 portLS1"},
        SweepCase{"astar", "auto", "clk4_w4 nonstall"},
        SweepCase{"astar", "alt", "clk4_w4"},
        SweepCase{"astar", "slipstream", "clk4_w2"},
        SweepCase{"bfs-roads", "auto", "clk8_w1 queue8"},
        SweepCase{"bfs-roads", "auto", "clk4_w4 delay8"},
        SweepCase{"bfs-youtube", "auto", "clk4_w2"},
        SweepCase{"bfs-roads", "slipstream", "clk4_w4"},
        SweepCase{"libquantum", "auto", "clk8_w1"},
        SweepCase{"bwaves", "auto", "clk1_w1"},
        SweepCase{"lbm", "auto", "clk8_w1 queue8"},
        SweepCase{"milc", "auto", "clk4_w4"},
        SweepCase{"leslie", "auto", "clk2_w2"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
        std::string name = std::string(info.param.workload) + "_" +
                           info.param.component + "_" + info.param.tokens;
        for (char& ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

// ---------------------------------------------------------------------------

TEST(Integration, SnoopAccountingIsConsistent)
{
    SimOptions o = quick("astar", "auto");
    Simulator sim(o);
    sim.run();
    StatGroup& s = sim.pfm()->stats();
    // Retired FST hits can't exceed retired-in-ROI instructions.
    EXPECT_LE(s.get("fst_retired_hits"), s.get("retired_in_roi"));
    EXPECT_LE(s.get("rst_hits"), s.get("retired_in_roi") +
                                     s.get("rst_hits")); // sanity
    // Custom predictions were actually used.
    EXPECT_GT(s.get("custom_predictions_used"), 1000u);
    // Every squash produced exactly one squash packet.
    EXPECT_EQ(s.get("squash_packets"), s.get("component_squashes"));
}

TEST(Integration, DelayIncreasesHurtMonotonically)
{
    SimResult d0 = runSim(quick("astar", "auto", "clk4_w4 delay0"));
    SimResult d8 = runSim(quick("astar", "auto", "clk4_w4 delay8"));
    EXPECT_GT(d0.ipc, d8.ipc * 0.99); // delay8 can't be faster
}

TEST(Integration, WatchdogKeepsBuggyRunAlive)
{
    // A component with watchdog enabled must never deadlock even with
    // hostile queue sizing.
    SimOptions o = quick("astar", "auto", "clk8_w1 queue8");
    o.pfm.watchdog_cycles = 10'000;
    SimResult r = runSim(o);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Integration, ContextSwitchTeardownDegradesGracefully)
{
    // Section 2.4: swapping the context out removes the component; the
    // run must stay correct and land between baseline and full speedup.
    SimResult base = runSim(quick("astar", "none"));
    SimOptions o = quick("astar", "auto", "clk4_w4 ctx30000");
    o.pfm.reconfig_cycles = 20'000;
    SimResult ctx = runSim(o);
    SimResult full = runSim(quick("astar", "auto", "clk4_w4"));
    EXPECT_GT(ctx.ipc, base.ipc * 0.8);
    EXPECT_LT(ctx.ipc, full.ipc);
}

TEST(Integration, ContextSwitchPreservesArchitecturalState)
{
    SimOptions o = quick("astar", "auto", "clk4_w4 ctx25000");
    o.pfm.reconfig_cycles = 10'000;
    Simulator sim(o);
    sim.run();
    EXPECT_GT(sim.pfm()->stats().get("context_switches"), 0u);

    std::uint64_t with = finalStateChecksum(o, "waymap", 1 << 16);
    std::uint64_t base =
        finalStateChecksum(quick("astar", "none"), "waymap", 1 << 16);
    EXPECT_EQ(with, base);
}

TEST(Integration, AltAndFullPredictorOrdering)
{
    SimResult base = runSim(quick("astar", "none"));
    SimResult full = runSim(quick("astar", "auto", "clk4_w4"));
    SimResult alt = runSim(quick("astar", "alt", "clk4_w4"));
    // The paper's ordering: full (load-based) > alt (table mimicry) > base.
    EXPECT_GT(full.ipc, alt.ipc);
    EXPECT_GT(alt.ipc, base.ipc);
}

TEST(Integration, StatsResetIsolatesMeasurement)
{
    SimOptions o = quick("astar", "auto");
    Simulator sim(o);
    SimResult r = sim.run();
    // Measured instructions == warmup excess + budget (within retire width).
    EXPECT_GE(r.instructions, o.warmup_instructions + o.max_instructions);
    EXPECT_LE(r.instructions,
              o.warmup_instructions + o.max_instructions + 8);
}

TEST(Integration, EngineAndTimingAgreeOnRetiredCount)
{
    SimOptions o = quick("astar", "auto");
    Simulator sim(o);
    sim.run();
    // Everything retired was fetched and executed exactly once
    // architecturally: the engine's executed count can exceed retired only
    // by the in-flight window.
    EXPECT_GE(sim.source().executed(), sim.core().retired());
    EXPECT_LE(sim.source().executed(),
              sim.core().retired() + 1024);
}

} // namespace
} // namespace pfm
