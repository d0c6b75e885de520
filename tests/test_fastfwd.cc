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
 *
 * The HookGating suite holds the PFM hooks' call gating to the same
 * standard: a PfmSystem called only for the events it declares matches
 * one called for every event (DESIGN.md §8 "Hook gating").
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "identity.h"
#include "passthrough_hooks.h"
#include "sim/ckpt_store.h"
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

// ---------------------------------------------------------------------------
// Hook gating (DESIGN.md §8): a PfmSystem called only for the events its
// HookGate declares must end in the same machine state as one called for
// every event. PassthroughHooks declares no gate, so installed over the
// PfmSystem it delivers every call; the same run without it is gated.

/** Install a PassthroughHooks over @p sim's PfmSystem. */
std::unique_ptr<PassthroughHooks>
installPassthrough(Simulator& sim)
{
    auto hooks = std::make_unique<PassthroughHooks>(*sim.pfm());
    sim.core().setHooks(hooks.get());
    return hooks;
}

TEST(HookGating, UngatedRunMatchesGatedAcrossConfigs)
{
    for (const FfConfig& cfg : kConfigs) {
        if (std::string(cfg.component) == "none")
            continue;
        SCOPED_TRACE(cfg.name);

        Simulator gated(ffOptions(cfg, true));
        SimResult r_gated = gated.run();

        Simulator ungated(ffOptions(cfg, true));
        auto hooks = installPassthrough(ungated);
        SimResult r_ungated = ungated.run();

        expectSameRow(r_gated, r_ungated);
        expectSameMachine(gated, ungated);
        EXPECT_EQ(hooks->retired(), ungated.core().retired());
    }
}

TEST(HookGating, PfmSystemDeclaresItsSnoopTables)
{
    SimOptions o;
    o.workload = "astar";
    Simulator sim(o);
    const HookGate& gate = sim.pfm()->gate();
    const Workload& w = sim.workload();
    ASSERT_TRUE(gate.filtered);
    // RST only: retire-side interest.
    EXPECT_TRUE(gate.wants(w.pc("snoop_inbase"), kSnoopRst));
    EXPECT_FALSE(gate.wants(w.pc("snoop_inbase"), kSnoopFst));
    // In both tables: the fetched branch the Fetch Agent predicts.
    EXPECT_TRUE(gate.wants(w.pc("br_way0"), kSnoopFst));
    EXPECT_TRUE(gate.wants(w.pc("br_way0"), kSnoopRst));
    // Outside both tables, and outside the flag table's span.
    EXPECT_FALSE(gate.wants(w.pc("snoop_inbase") + 4, kSnoopRst | kSnoopFst));
    EXPECT_FALSE(gate.wants(0, kSnoopRst | kSnoopFst));
    // No cycle has run since the attach, so onCycle() is due at once.
    EXPECT_EQ(gate.wake, 0u);
}

TEST(HookGating, DeferredAttachRestoreMatches)
{
    const std::string path =
        ::testing::TempDir() + "hook_gating_defer.ckpt";
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    Simulator(warm).run();

    SimOptions leg;
    leg.workload = "lbm";
    leg.component = "auto";
    leg.defer_component = true;
    leg.warmup_instructions = 4000;
    leg.max_instructions = 60'000;
    leg.checkpoint_load = path;
    applyTokens(leg, "clk8_w1 delay4 queue8 portLS1");

    Simulator gated(leg);
    SimResult r_gated = gated.run();

    // The component attaches inside run(), after the restore, so the
    // decorator goes in at the first cancellation poll that finds it:
    // the run switches from gated to ungated midway.
    SimOptions poll = leg;
    std::unique_ptr<PassthroughHooks> hooks;
    std::uint64_t retired_at_install = 0;
    Simulator* ungated_sim = nullptr;
    poll.cancel_poll = [&]() {
        if (!hooks && ungated_sim->pfm()) {
            hooks = installPassthrough(*ungated_sim);
            retired_at_install = ungated_sim->core().retired();
        }
        return false;
    };
    Simulator ungated(poll);
    ungated_sim = &ungated;
    SimResult r_ungated = ungated.run();
    ckptRemove(path);

    ASSERT_NE(hooks, nullptr) << "run too short to reach a cancel poll";
    EXPECT_LT(retired_at_install, ungated.core().retired());
    expectSameRow(r_gated, r_ungated);
    expectSameMachine(gated, ungated);
    EXPECT_EQ(hooks->retired(),
              ungated.core().retired() - retired_at_install);
}

TEST(HookGating, TraceReplayMatches)
{
    const std::string trace = ::testing::TempDir() + "hook_gating.pfmtrace";
    SimOptions native;
    native.workload = "bfs-roads";
    native.component = "auto";
    native.warmup_instructions = 5'000;
    native.max_instructions = 20'000;
    native.record_trace = trace;
    Simulator(native).run();

    SimOptions replay = native;
    replay.workload = "trace:" + trace;
    replay.record_trace.clear();

    Simulator gated(replay);
    SimResult r_gated = gated.run();
    Simulator ungated(replay);
    auto hooks = installPassthrough(ungated);
    SimResult r_ungated = ungated.run();
    std::remove(trace.c_str());

    expectSameRow(r_gated, r_ungated);
    expectSameMachine(gated, ungated);
    EXPECT_EQ(hooks->retired(), ungated.core().retired());
}

} // namespace
} // namespace pfm
