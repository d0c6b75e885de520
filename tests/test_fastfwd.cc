/**
 * @file
 * Property tests for the event-horizon fast-forward: for a spread of
 * randomized configurations (workload x component x clk/width x token
 * extras), a simulation with fastfwd on must produce the *identical*
 * machine state as one with fastfwd off — same BENCH row and the same
 * whole-machine digest (tests/identity.h: every cache plane, queue and
 * stat counter of the engine, hierarchy, core and PFM system).
 * Fast-forward is a pure wall-clock optimisation; any observable
 * difference is a bug in a nextEventCycle() source (see DESIGN.md,
 * "Fast-forward invariants").
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "identity.h"
#include "sim/options.h"
#include "sim/simulator.h"

namespace pfm {
namespace {

struct FfConfig {
    const char* name;
    const char* workload;
    const char* component;
    const char* tokens;
    /**
     * Starve the scheduler: an 8-entry IQ, one lane per group and a
     * 2-wide issue budget, so the ready set stays full, lanes turn ready
     * entries away and the budget cuts select off mid-walk.
     */
    bool tiny_sched = false;
};

// Deterministic spread over the paper's axes: bare core vs PFM component
// vs slipstream/alt models, fast vs slow reconfigurable-fabric clocks,
// context switching, non-stalling fetch, perfect branch prediction, and
// every custom-prefetcher workload family (each has its own
// nextEventCycle() behaviour).
const FfConfig kConfigs[] = {
    {"astar_bare", "astar", "none", ""},
    {"astar_pfm_fast", "astar", "auto", "clk4_w4 delay0 queue32 portALL"},
    {"astar_pfm_slow_ctx", "astar", "auto",
     "clk16_w1 delay8 queue8 portLS ctx100000"},
    {"astar_alt", "astar", "alt", "clk4_w4"},
    {"astar_slipstream", "astar", "slipstream", ""},
    {"bfs_bare", "bfs-roads", "none", ""},
    {"bfs_pfm_nonstall", "bfs-roads", "auto",
     "clk4_w4 delay0 queue32 portALL nonstall"},
    {"libquantum_pf", "libquantum", "auto", ""},
    {"lbm_pf_perfbp", "lbm", "auto", "perfBP"},
    {"bwaves_pf_slowclk", "bwaves", "auto", "clk8_w2"},
    {"milc_pf", "milc", "auto", ""},
    {"leslie_pf_nol1pf", "leslie", "auto", "noL1pf noVLDP"},
    // PMP is event-driven (cache observation tap): its nextEventCycle()
    // must be exact for the skip horizon to stay sound.
    {"astar_pmp", "astar", "pmp", "clk4_w4 delay0 queue32 portALL"},
    {"lbm_pmp", "lbm", "pmp", ""},
    {"bfs_pmp_slowclk", "bfs-roads", "pmp", "clk8_w2"},
    {"bwaves_pf_tinysched", "bwaves", "auto", "", true},
    {"astar_bare_tinysched", "astar", "none", "", true},
};

SimOptions
ffOptions(const FfConfig& cfg, bool fastfwd)
{
    SimOptions o;
    o.workload = cfg.workload;
    o.component = cfg.component;
    o.max_instructions = 40'000;
    o.warmup_instructions = 8'000;
    if (cfg.tokens[0] != '\0')
        applyTokens(o, cfg.tokens);
    if (cfg.tiny_sched) {
        o.core.iq_size = 8;
        o.core.alu_lanes = o.core.ls_lanes = o.core.fp_lanes = 1;
        o.core.issue_width = 2;
    }
    o.fastfwd = fastfwd;
    return o;
}

TEST(FastForward, IdenticalStateAcrossConfigs)
{
    for (const FfConfig& cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);

        Simulator off(ffOptions(cfg, false));
        SimResult r_off = off.run();
        Simulator on(ffOptions(cfg, true));
        SimResult r_on = on.run();

        expectSameRow(r_off, r_on);
        expectSameMachine(off, on);
    }
}

TEST(FastForward, DefaultsOnAndTokenToggles)
{
    SimOptions o;
    EXPECT_TRUE(o.fastfwd);
    applyToken(o, "fastfwd=off");
    EXPECT_FALSE(o.fastfwd);
    applyToken(o, "fastfwd=on");
    EXPECT_TRUE(o.fastfwd);
    applyToken(o, "--fastfwd=off");
    EXPECT_FALSE(o.fastfwd);
    applyToken(o, "fastfwd");
    EXPECT_TRUE(o.fastfwd);
}

/**
 * Counting/recording stub for the cache observation tap: serializes every
 * event field so two runs can be compared byte for byte.
 */
class RecordingObserver : public CacheEventObserver
{
  public:
    void onCacheEvent(const CacheEvent& e) override
    {
        ++count_;
        os_ << static_cast<int>(e.type) << ':' << int{e.level} << ':'
            << e.ifetch << e.hit << e.prefetched << e.late << ':' << std::hex
            << e.line << ':' << e.cycle << std::dec << '\n';
    }
    std::string stream() const { return os_.str(); }
    std::uint64_t count() const { return count_; }

  private:
    std::ostringstream os_;
    std::uint64_t count_ = 0;
};

TEST(FastForward, CacheEventStreamIdenticalAcrossFastforward)
{
    // The observation tap must be deterministic under fast-forward: a
    // skipped cycle is by definition one in which no memory access runs,
    // so the full event stream — every field of every event, in order —
    // has to match between fastfwd on and off. Covers bare core (tap
    // otherwise uninstalled), FSM-prefetcher and PMP configs; installing
    // the recorder displaces a component tap identically in both runs.
    const char* names[] = {"astar_bare", "lbm_pf_perfbp", "lbm_pmp",
                           "astar_pfm_slow_ctx", "bwaves_pf_slowclk"};
    for (const char* name : names) {
        const FfConfig* cfg = nullptr;
        for (const FfConfig& c : kConfigs) {
            if (std::string(c.name) == name)
                cfg = &c;
        }
        ASSERT_NE(cfg, nullptr) << name;
        SCOPED_TRACE(cfg->name);

        RecordingObserver rec_off;
        Simulator off(ffOptions(*cfg, false));
        off.memory().setEventObserver(&rec_off);
        off.run();

        RecordingObserver rec_on;
        Simulator on(ffOptions(*cfg, true));
        on.memory().setEventObserver(&rec_on);
        on.run();

        EXPECT_GT(rec_off.count(), 0u) << "tap saw no traffic";
        EXPECT_EQ(rec_off.count(), rec_on.count());
        EXPECT_EQ(rec_off.stream(), rec_on.stream());
    }
}

TEST(FastForward, TapInstalledOnlyForOptingComponents)
{
    // Zero-cost contract: a component that does not override
    // wantsCacheEvents() must leave the hierarchy tap empty (one null
    // compare per access is the entire overhead budget).
    {
        SimOptions o;
        o.workload = "astar";
        o.component = "none";
        Simulator sim(o);
        EXPECT_EQ(sim.memory().eventObserver(), nullptr);
    }
    {
        // AstarPredictor keeps no prefetch accounting: not opted in.
        SimOptions o;
        o.workload = "astar";
        o.component = "auto";
        Simulator sim(o);
        ASSERT_NE(sim.pfm(), nullptr);
        EXPECT_FALSE(sim.pfm()->component()->wantsCacheEvents());
        EXPECT_EQ(sim.memory().eventObserver(), nullptr);
        EXPECT_EQ(sim.pfm()->component()->prefetchAccounting(), nullptr);
    }
    {
        // The FSM prefetchers opt in; the tap must point at the component.
        SimOptions o;
        o.workload = "lbm";
        o.component = "auto";
        Simulator sim(o);
        ASSERT_NE(sim.pfm(), nullptr);
        EXPECT_TRUE(sim.pfm()->component()->wantsCacheEvents());
        EXPECT_EQ(sim.memory().eventObserver(), sim.pfm()->component());
    }
    {
        SimOptions o;
        o.workload = "bfs-roads";
        o.component = "pmp";
        Simulator sim(o);
        ASSERT_NE(sim.pfm(), nullptr);
        EXPECT_EQ(sim.memory().eventObserver(), sim.pfm()->component());
    }
}

TEST(FastForward, ActuallySkipsCyclesOnStallHeavyRun)
{
    // Sanity that the optimisation engages at all: a bare-core run is
    // dominated by DRAM-bound stalls, so with fastfwd on the core must
    // reach the same final cycle while ticking far fewer times. tick()
    // count is not exposed directly; instead run the same config through
    // Core::fastForward() manually and check it reports skipped cycles.
    SimOptions o = ffOptions(kConfigs[0], true);
    Simulator sim(o);
    std::uint64_t skipped = 0;
    Core& core = sim.core();
    while (!core.done() && core.retired() < 60'000) {
        skipped += core.fastForward();
        core.tick();
    }
    EXPECT_GT(skipped, 0u);
}

} // namespace
} // namespace pfm
