/**
 * @file
 * The traced per-layer probe. A simulation is run untraced, then traced
 * through a timing CoreHooks decorator, then once more through a
 * capturing decorator; the three results must be identical. The captured
 * engine, branch and load/store streams and a warm checkpoint are then
 * replayed into fresh layer instances, timing only the calls into each
 * layer. Nothing inside src/ is instrumented: every span is taken here,
 * around the simulator's public entry points.
 */

#ifndef PFM_PERFBENCH_LAYERS_H
#define PFM_PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/options.h"
#include "sim/simulator.h"

namespace perfbench {

/** The CoreHooks entry points, in span-kind order. */
enum Hook : unsigned {
    kFetchOverride,
    kOnRetire,
    kOnSquash,
    kOnCycle,
    kNextEventCycle,
    kOnFastForward,
    kNumHooks
};

/**
 * Per-layer measurements, summed over every probed configuration (one for
 * the single-simulation workloads, one per farm workload for the farm).
 */
struct LayerTotals {
    // Phase samples.
    std::vector<double> build_ms;      ///< makeWorkload
    std::vector<double> construct_ms;  ///< Simulator construction

    // Untraced vs traced run() of the same configuration (best of each).
    double untraced_run_s = 0;
    double traced_run_s = 0;
    std::uint64_t instructions = 0;  ///< retired by run(), warmup included
    std::uint64_t cycles = 0;        ///< simulated cycles
    std::uint64_t ticked_cycles = 0; ///< cycles Core::tick() ran (onCycle)
    std::uint64_t hook_calls[kNumHooks] = {};
    double hook_ns = 0;              ///< host time inside CoreHooks calls

    // Isolated replays: host ns and calls.
    double isa_ns = 0;
    std::uint64_t isa_calls = 0;
    double branch_ns = 0;
    std::uint64_t branch_calls = 0;
    double memory_ns = 0;
    std::uint64_t memory_calls = 0;
    std::vector<double> ckpt_save_ms;
    std::vector<double> ckpt_load_ms;
    std::uint64_t ckpt_bytes = 0;
    unsigned ckpt_images = 0;

    // StatGroup counts. Core and pfm groups are reset at the warmup
    // boundary (window: measurement); l1d/l2/dram are not (window: warmup
    // plus measurement).
    std::uint64_t measured_instructions = 0;
    std::uint64_t branch_mispredicts = 0;
    std::uint64_t dispatch_stall_rob = 0;
    std::uint64_t prefetches_issued = 0;
    std::uint64_t custom_predictions_used = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_mshr_stalls = 0;
    std::uint64_t dram_accesses = 0;
};

/**
 * Bit-exact fingerprint of a finished simulation: every SimResult field
 * (doubles in hex) plus the dump of every stat group the simulator owns.
 */
std::string simFingerprint(pfm::Simulator& sim, const pfm::SimResult& r);

/**
 * Probe @p opt (a non-deferred configuration): phase samples, untraced and
 * traced runs for about @p seconds, the capture run and the replays. The
 * identity checks are counted in @p report; spans go to
 * `<kWorkDir>/spans-<tag>.tsv`.
 */
void probeLayers(const pfm::SimOptions& opt, double seconds,
                 const std::string& tag, LayerTotals& totals,
                 Report& report);

/** Per-layer values only the farm has, measured on its client side. */
struct DaemonLayer {
    double cache_hit_ratio = 0;  ///< hits / acquires from the stats frame
    double farm_s = 0;           ///< median wall time of a whole pass
    double leg_p50_ms = 0;
    Tail leg_tail;
};

/**
 * Add every per-layer metric to @p report. Without @p daemon (the
 * single-simulation workloads) the daemon metrics are reported as 0.
 */
void reportLayers(const LayerTotals& t, const DaemonLayer* daemon,
                  Report& report);

} // namespace perfbench

#endif // PFM_PERFBENCH_LAYERS_H
