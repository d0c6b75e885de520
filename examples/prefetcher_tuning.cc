/**
 * @file
 * Demonstrates the adaptive prefetch-distance feedback (Section 4.3) on
 * libquantum, using the library API directly (workload -> engine -> core
 * -> PfmSystem -> FsmPrefetcher): fixed distances are swept by pinning
 * the controller (step=0), then the adaptive controller is run.
 */

#include <cstdio>

#include "components/prefetch_engine.h"
#include "core/core.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

using namespace pfm;

namespace {

double
runLibquantum(bool attach_prefetcher, const AdaptiveDistance::Params& ad)
{
    Workload w = makeWorkload("libquantum");
    HierarchyParams hp;
    Hierarchy mem(hp);
    FunctionalEngine engine(w.program, *w.mem);
    engine.reset(w.entry);
    for (const auto& [reg, val] : w.init_regs)
        engine.setReg(reg, val);
    CoreParams cp;
    Core core(cp, engine, mem);

    PfmParams pp; // clk4_w4 queue32 defaults
    PfmSystem pfm(pp, mem, engine.commitLog(), core.laneUsage());
    if (attach_prefetcher) {
        std::uint64_t nodes = w.metaVal("nodes");
        std::uint64_t stride = w.metaVal("stride");
        PrefetchStream s;
        s.name = "toffoli";
        s.base = w.dataAddr("reg");
        s.levels = {{1u << 20, 0},
                    {nodes, static_cast<std::int64_t>(stride)}};
        s.unit_elems = kLineBytes / stride;
        s.events_per_unit = static_cast<double>(kLineBytes / stride);
        s.feedback_pc = w.pc("del_load_tof");
        PrefetchStream sig = s;
        sig.name = "sigma";
        sig.feedback_pc = w.pc("del_load_sig");
        FsmPrefetcher::attach(pfm, w, {s, sig}, ad);
        core.setHooks(&pfm);
    }

    const std::uint64_t warmup = 100'000, run = 600'000;
    while (!core.done() && core.retired() < warmup)
        core.tick();
    core.resetStats();
    while (!core.done() && core.retired() < warmup + run)
        core.tick();
    return core.ipc();
}

} // namespace

int
main()
{
    std::printf("=== Adaptive prefetch distance on libquantum ===\n\n");

    double base = runLibquantum(false, {});
    std::printf("baseline (next-2-line + VLDP only): IPC %.3f\n\n", base);

    std::printf("fixed prefetch distances (adaptation pinned):\n");
    for (unsigned dist : {2u, 8u, 32u, 96u}) {
        AdaptiveDistance::Params ad;
        ad.initial = dist;
        ad.step = 0; // never moves
        double ipc = runLibquantum(true, ad);
        std::printf("  distance %3u: IPC %.3f  (%+.0f%%)\n", dist, ipc,
                    (ipc / base - 1.0) * 100.0);
    }

    AdaptiveDistance::Params adaptive; // defaults: probes upward per epoch
    double ipc = runLibquantum(true, adaptive);
    std::printf("\nadaptive controller: IPC %.3f  (%+.0f%%)\n", ipc,
                (ipc / base - 1.0) * 100.0);
    std::printf("(the controller should land near the best fixed "
                "distance)\n");
    return 0;
}
