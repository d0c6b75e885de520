#include "energy/energy_model.h"

namespace pfm {

EnergyBreakdown
computeEnergy(const EnergyParams& p, Cycle cycles,
              const StatGroup& core_stats, const StatGroup& l2_stats,
              const StatGroup& l3_stats, const StatGroup& dram_stats,
              const FpgaEstimate* rf)
{
    EnergyBreakdown e;

    auto c = [&core_stats](const char* name) {
        return static_cast<double>(core_stats.get(name));
    };

    double fetched = c("fetched");
    double dispatched = c("dispatched");
    double issued = c("issued");
    // Loads and stores both pass through the LSQ/D$ pipe.
    double mem_ops = c("load_l1_misses") + c("stl_forwards") +
                     c("stores_drained");
    // Issued loads also access the D$; approximated as a fixed fraction
    // of all issued instructions.
    double dcache_ops = mem_ops + issued * 0.15;

    double mispredicts = c("branch_mispredicts");
    double squashed = c("squashed_instrs");

    e.core_dynamic_nj =
        fetched * p.fetch_nj + dispatched * p.rename_dispatch_nj +
        issued * p.issue_exec_nj + dcache_ops * p.lsq_dcache_nj +
        static_cast<double>(l2_stats.get("accesses")) * p.l2_nj +
        static_cast<double>(l3_stats.get("accesses")) * p.l3_nj +
        static_cast<double>(dram_stats.get("accesses")) * p.dram_nj +
        squashed * p.squash_overhead_nj +
        mispredicts * p.wrongpath_insts_per_mispredict *
            (p.fetch_nj + p.rename_dispatch_nj);

    e.core_static_nj =
        static_cast<double>(cycles) * p.core_static_nj_per_cycle;

    if (rf) {
        double seconds =
            static_cast<double>(cycles) / (p.core_freq_ghz * 1e9);
        double rf_mw = rf->dyn_logic_mw + rf->dyn_io_mw + rf->static_mw;
        e.rf_nj = rf_mw * 1e-3 * seconds * 1e9; // mW * s -> nJ
    }

    e.total_nj = e.core_dynamic_nj + e.core_static_nj + e.rf_nj;
    return e;
}

} // namespace pfm
