/**
 * @file
 * Component option semantics: each design knob must move the metric the
 * paper says it moves (speculative scope, store inference, maparp
 * prediction, bfs queue capacity, alt table sizing).
 */

#include <gtest/gtest.h>

#include "components/astar_alt_predictor.h"
#include "components/astar_predictor.h"
#include "components/bfs_component.h"
#include "sim/simulator.h"

namespace pfm {
namespace {

SimOptions
quick(const std::string& workload)
{
    SimOptions o;
    o.workload = workload;
    o.component = "auto";
    o.warmup_instructions = 20'000;
    o.max_instructions = 150'000;
    return o;
}

TEST(AstarOptions, ScopeIsMonotonic)
{
    double prev_ipc = 0;
    for (unsigned scope : {2u, 4u, 8u, 16u}) {
        SimOptions o = quick("astar");
        o.astar_index_queue = scope;
        SimResult r = runSim(o);
        EXPECT_GE(r.ipc, prev_ipc * 0.97) << "scope " << scope;
        prev_ipc = r.ipc;
    }
}

/** Attach an astar predictor with explicit options. */
SimResult
runAstarWith(const AstarPredictorOptions& opt)
{
    SimOptions o = quick("astar");
    o.component = "none"; // attach manually below
    Simulator sim(o);
    auto pfm_sys = std::make_unique<PfmSystem>(
        o.pfm, sim.memory(), sim.source().commitLog(), sim.core().laneUsage());
    AstarPredictor::attach(*pfm_sys, sim.workload(), opt);
    sim.core().setHooks(pfm_sys.get());
    return sim.run();
}

TEST(AstarOptions, CamInferenceCutsMpki)
{
    AstarPredictorOptions with;
    AstarPredictorOptions without;
    without.inference = false;
    SimResult r_with = runAstarWith(with);
    SimResult r_without = runAstarWith(without);
    // Without the index1 CAM, in-flight revisits mispredict: MPKI rises.
    EXPECT_LT(r_with.mpki, r_without.mpki);
    EXPECT_GT(r_with.ipc, r_without.ipc);
}

TEST(AstarOptions, MaparpPredictionMatters)
{
    AstarPredictorOptions both;
    AstarPredictorOptions way_only;
    way_only.predict_maparp = false;
    SimResult r_both = runAstarWith(both);
    SimResult r_way = runAstarWith(way_only);
    // Leaving branch 2 to TAGE (the slipstream limitation) costs speedup.
    EXPECT_GT(r_both.ipc, r_way.ipc);
}

TEST(BfsOptions, QueueCapacityIsMonotonic)
{
    double prev_ipc = 0;
    for (unsigned q : {16u, 32u, 64u}) {
        SimOptions o = quick("bfs-roads");
        o.bfs_queue_entries = q;
        SimResult r = runSim(o);
        EXPECT_GE(r.ipc, prev_ipc * 0.97) << "queues " << q;
        prev_ipc = r.ipc;
    }
}

TEST(BfsOptions, LoopPredictionCarriesTheTripCounts)
{
    // Visited-only (slipstream-style) loses the trip-count streaming.
    SimOptions both = quick("bfs-roads");
    SimOptions slip = quick("bfs-roads");
    slip.component = "slipstream";
    SimResult r_both = runSim(both);
    SimResult r_slip = runSim(slip);
    EXPECT_GT(r_both.ipc, r_slip.ipc);
}

TEST(AltOptions, UndersizedTablesAliasAndHurt)
{
    // The dataset-sensitivity weakness the paper cites for astar-alt:
    // tables much smaller than the grid alias and mispredict.
    SimOptions o = quick("astar");
    o.component = "none";

    auto run_alt = [&o](unsigned table_bytes) {
        Simulator sim(o);
        auto pfm_sys = std::make_unique<PfmSystem>(
            o.pfm, sim.memory(), sim.source().commitLog(),
            sim.core().laneUsage());
        AstarAltOptions alt;
        alt.table_bytes = table_bytes;
        AstarAltPredictor::attach(*pfm_sys, sim.workload(), alt);
        sim.core().setHooks(pfm_sys.get());
        return sim.run();
    };

    SimResult small = run_alt(8 * 1024);   // 8Ki tags vs 262k cells
    SimResult sized = run_alt(256 * 1024); // one tag per cell
    EXPECT_GT(sized.ipc, small.ipc);
    EXPECT_LT(sized.mpki, small.mpki);
}

TEST(SlipstreamModel, OrderingMatchesFigure2)
{
    SimOptions base = quick("astar");
    base.component = "none";
    SimOptions slip = quick("astar");
    slip.component = "slipstream";
    SimOptions full = quick("astar");

    SimResult rb = runSim(base);
    SimResult rs = runSim(slip);
    SimResult rf = runSim(full);
    EXPECT_GT(rs.ipc, rb.ipc);      // slipstream helps a little
    EXPECT_GT(rf.ipc, rs.ipc * 1.2); // PFM is clearly ahead
}

} // namespace
} // namespace pfm
