/**
 * @file
 * Superscalar core configuration. Defaults reproduce Table 1 of the paper.
 */

#ifndef PFM_CORE_CORE_PARAMS_H
#define PFM_CORE_CORE_PARAMS_H

#include "common/types.h"

namespace pfm {

/**
 * Values are explicit: configFingerprint() hashes them into every
 * checkpoint header (and the golden fixture uses kBimodal), so a deleted
 * kind leaves a gap rather than renumbering the rest.
 */
enum class BpKind {
    kTageScl = 0,   ///< Table 1 baseline: 64KB TAGE-SC-L
    kBimodal = 3,
    kPerfect = 4,   ///< oracle (perfBP experiments)
};

struct CoreParams {
    unsigned fetch_width = 4;     ///< Table 1: fetch/retire 4 instr/cycle
    unsigned retire_width = 4;
    unsigned issue_width = 8;     ///< Table 1: issue/execute 8 instr/cycle

    unsigned rob_size = 224;      ///< active list
    unsigned iq_size = 100;
    unsigned ldq_size = 72;
    unsigned stq_size = 72;
    unsigned prf_size = 288;

    unsigned alu_lanes = 4;       ///< simple ALU lanes
    unsigned ls_lanes = 2;        ///< load/store lanes
    unsigned fp_lanes = 2;        ///< FP / complex ALU lanes

    /**
     * Fetch-to-dispatch stages. With 1 issue + 1 reg-read + >=1 execute +
     * 1 writeback + 1 retire this yields the paper's 10-stage fetch-to-
     * retire depth.
     */
    unsigned frontend_depth = 5;

    /** Extra cycles to redirect fetch after a resolved misprediction. */
    unsigned redirect_penalty = 2;

    unsigned write_buffer_size = 16;

    /** Execution latencies (cycles). */
    unsigned lat_int_alu = 1;
    unsigned lat_int_mul = 3;
    unsigned lat_int_div = 12;
    unsigned lat_fp_add = 3;
    unsigned lat_fp_mul = 4;
    unsigned lat_fp_div = 12;
    unsigned lat_agen = 1;

    BpKind bp_kind = BpKind::kTageScl;

    /** Model the BTB/RAS front end (off = perfect target prediction). */
    bool model_btb = true;
    /** Decode-redirect bubble when a taken direct target misses the BTB. */
    unsigned btb_fill_penalty = 3;

    /** Frontend staging buffer capacity (fetched, not yet dispatched). */
    unsigned frontend_buffer = 48;
};

} // namespace pfm

#endif // PFM_CORE_CORE_PARAMS_H
