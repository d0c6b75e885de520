/**
 * @file
 * Simulation options and parsing of the paper's parameter notation
 * (Section 3): clkC_wW, delayD, queueQ, portP.
 */

#ifndef PFM_SIM_OPTIONS_H
#define PFM_SIM_OPTIONS_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/core_params.h"
#include "memory/hierarchy.h"
#include "pfm/pfm_params.h"

namespace pfm {

struct SimOptions {
    std::string workload = "astar";

    /**
     * Component selection: "auto" attaches the workload's custom
     * component, "none" runs the bare core, "slipstream" attaches the
     * simplified Slipstream 2.0 model (astar/bfs only).
     */
    std::string component = "auto";

    PfmParams pfm;
    CoreParams core;
    HierarchyParams mem;

    unsigned astar_index_queue = 8;   ///< Figure 10 sweep
    unsigned bfs_queue_entries = 64;  ///< Figure 14 sweep

    std::uint64_t max_instructions = 3'000'000;
    std::uint64_t warmup_instructions = 200'000;

    /** Abort if no instruction retires for this many cycles (deadlock). */
    Cycle deadlock_cycles = 2'000'000;

    /**
     * Event-horizon fast-forward: when the whole machine is provably
     * quiescent for a cycle, jump straight to the next event instead of
     * ticking through the stall. Stats and reports are byte-identical
     * either way; "fastfwd=off" is the escape hatch.
     */
    bool fastfwd = true;

    /** Konata pipeline trace output ("" disables). */
    std::string trace_path;
    std::uint64_t trace_limit = 50'000;

    /**
     * Checkpoint/restore (DESIGN.md "Checkpoint format"). Save writes the
     * whole machine state at the warmup boundary (right after the stats
     * resets); load restores it into a freshly constructed simulator and
     * skips straight to measurement. A save+load pair produces reports
     * byte-identical to the uninterrupted run.
     */
    std::string checkpoint_save;
    std::string checkpoint_load;

    /**
     * Record the committed-instruction stream (plus the materialized
     * workload) to this trace file; replay it later with
     * --workload=trace:<path>. Exclusive with checkpointing (the writer's
     * stream position is not checkpointable state) and with trace
     * replays (re-recording a replay is a no-op by construction).
     * Excluded from the config fingerprint: recording observes the run,
     * it does not shape machine state.
     */
    std::string record_trace;

    /**
     * Store subdir, relative to the checkpoint's directory, that
     * checkpoint_save publishes its section blobs into; saves sharing
     * one subdir dedup their common sections (ckpt_store.h). Empty: the
     * checkpoint's own `<checkpoint_save>.blobs`. Loads need no flag: the
     * manifest names its store. Excluded from the config fingerprint:
     * storage layout does not shape machine state.
     */
    std::string ckpt_store;

    /**
     * Attach the custom component at the warmup boundary instead of at
     * construction, so a single bare-core warmup checkpoint is shareable
     * across measurement legs with different components/parameters (the
     * sharded-sweep mode). Only components with static configuration —
     * the ones opting into supportsCheckpoint() — may defer; the ROI is
     * begun synthetically at the boundary since the workload's roi_begin
     * marker retired during warmup. The identity reference for a sharded
     * run is an uninterrupted run with defer_component set.
     */
    bool defer_component = false;

    /**
     * Report prefetch coverage/accuracy/timeliness: when set, runs whose
     * component keeps a PrefetchAccounting get pf_* fields in their BENCH
     * JSON rows (token "pfstats"). Off by default so existing bench JSON
     * stays byte-identical. Excluded from the config fingerprint:
     * reporting shape, not machine state.
     */
    bool report_prefetch_stats = false;

    /**
     * Cooperative cancellation: polled every few thousand scheduler
     * iterations inside Simulator::run(); returning true aborts the run
     * by throwing SimCancelled (see simulator.h). Used by the sim daemon
     * to abandon in-flight legs when their client disconnects. Empty =
     * never cancelled. Deliberately excluded from the config fingerprint:
     * it does not shape machine state.
     */
    std::function<bool()> cancel_poll;
};

/**
 * Apply one parameter token in the paper's notation: "clk4_w4", "delay8",
 * "queue32", "portLS1", "perfBP", "perfD$". Fatal on unknown tokens.
 */
void applyToken(SimOptions& opt, const std::string& token);

/** Apply a whitespace-separated token string. */
void applyTokens(SimOptions& opt, const std::string& tokens);

/** Parse --workload= / --component= / --instructions= / tokens argv. */
SimOptions parseCommandLine(int argc, char** argv);

/**
 * Strict unsigned parse shared by every numeric knob, request field and
 * tool flag: all of @p text must be one number in @p base (0 keeps
 * strtoull's 0x/octal prefixes) no larger than @p max. Anything else —
 * empty, a sign, leading space, trailing junk, overflow — is fatal with a
 * diagnostic naming the value and @p where it came from.
 */
std::uint64_t
parseNumber(const std::string& text, int base, const std::string& where,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Default per-benchmark instruction budget (env PFM_INSTRUCTIONS wins). */
std::uint64_t defaultInstructionBudget();

} // namespace pfm

#endif // PFM_SIM_OPTIONS_H
