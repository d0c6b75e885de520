/**
 * @file
 * Section 2.4 demo: a deliberately buggy custom component stops sending
 * predictions mid-run; the Fetch Agent's watchdog trips the chicken
 * switch and the core falls back to its own predictor instead of hanging.
 */

#include <cstdio>

#include "components/astar_predictor.h"
#include "core/core.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

using namespace pfm;

namespace {

/** Astar predictor that goes silent after a while (a "deployed bug"). */
class BuggyAstarPredictor : public AstarPredictor
{
  public:
    using AstarPredictor::AstarPredictor;

  protected:
    void
    rfStep(Cycle now) override
    {
        if (now > 120'000)
            return; // bug: engines wedge, IntQ-F starves
        AstarPredictor::rfStep(now);
    }
};

double
run(bool watchdog)
{
    Workload w = makeWorkload("astar");
    HierarchyParams hp;
    Hierarchy mem(hp);
    FunctionalEngine engine(w.program, *w.mem);
    engine.reset(w.entry);
    for (const auto& [reg, val] : w.init_regs)
        engine.setReg(reg, val);
    CoreParams cp;
    Core core(cp, engine, mem);

    PfmParams pp;
    pp.watchdog_cycles = watchdog ? 5'000 : 0;
    PfmSystem pfm(pp, mem, engine.commitLog(), core.laneUsage());

    // Configure snoop tables exactly as the normal factory does, but
    // install the buggy component.
    AstarPredictorOptions opt;
    AstarPredictor::attach(pfm, w, opt); // sets up RST/FST
    pfm.setComponent(std::make_unique<BuggyAstarPredictor>(w, opt));
    core.setHooks(&pfm);

    const Cycle limit = 600'000;
    while (!core.done() && core.cycle() < limit)
        core.tick();
    std::printf("  watchdog %-3s: %8llu instructions in %llu cycles "
                "(IPC %.3f)%s\n",
                watchdog ? "on" : "off",
                (unsigned long long)core.retired(),
                (unsigned long long)core.cycle(),
                static_cast<double>(core.retired()) /
                    static_cast<double>(core.cycle()),
                watchdog && pfm.stats().get("watchdog_disables")
                    ? "  [chicken switch fired]"
                    : "");
    return static_cast<double>(core.retired());
}

} // namespace

int
main()
{
    std::printf("=== Buggy component vs the Fetch Agent watchdog ===\n");
    std::printf("The component stops producing predictions at cycle "
                "120k;\nwithout the watchdog, fetch stalls forever on the "
                "empty IntQ-F.\n\n");
    double without = run(false);
    double with = run(true);
    std::printf("\nwith the chicken switch the run retires %.1fx more "
                "instructions\n",
                with / without);
    return 0;
}
