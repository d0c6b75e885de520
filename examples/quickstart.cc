/**
 * @file
 * Quickstart: run any workload on the Table-1 superscalar core, with or
 * without its PFM custom component, in the paper's parameter notation.
 *
 *   ./quickstart --workload=astar --component=auto clk4_w4 delay4 \
 *       queue32 portLS1 --instructions=1000000
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/simulator.h"
#include "sim/stats_io.h"

int
main(int argc, char** argv)
{
    std::string stats_csv;
    bool print_config = false;
    std::vector<char*> passthrough;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--print-config") {
            print_config = true;
        } else if (arg.rfind("--stats-csv=", 0) == 0) {
            stats_csv = arg.substr(std::string("--stats-csv=").size());
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    pfm::SimOptions opt = pfm::parseCommandLine(
        static_cast<int>(passthrough.size()), passthrough.data());

    if (print_config) {
        std::fputs(pfm::configSummary(opt.core, opt.mem).c_str(), stdout);
        std::printf("  PFM                  : %s\n",
                    pfm::pfmSummary(opt.pfm).c_str());
    }

    std::printf("workload:   %s\n", opt.workload.c_str());
    std::printf("component:  %s\n", opt.component.c_str());
    std::printf("pfm config: %s\n", opt.pfm.tag().c_str());

    pfm::Simulator sim(opt);
    pfm::SimResult r = sim.run();

    std::printf("\ninstructions: %llu\n",
                (unsigned long long)r.instructions);
    std::printf("cycles:       %llu\n", (unsigned long long)r.cycles);
    std::printf("IPC:          %.3f\n", r.ipc);
    std::printf("MPKI:         %.2f\n", r.mpki);
    if (sim.pfm()) {
        std::printf("RST hit %%:    %.1f\n", r.rst_hit_pct);
        std::printf("FST hit %%:    %.1f\n", r.fst_hit_pct);
    }
    if (!stats_csv.empty()) {
        std::ofstream csv(stats_csv);
        std::vector<const pfm::StatGroup*> groups = {
            &sim.core().stats(),         &sim.memory().stats(),
            &sim.memory().l1i().stats(), &sim.memory().l1d().stats(),
            &sim.memory().l2().stats(),  &sim.memory().l3().stats(),
            &sim.memory().dram().stats()};
        if (sim.pfm())
            groups.push_back(&sim.pfm()->stats());
        pfm::writeStatsCsv(csv, groups);
        std::printf("stats written to %s\n", stats_csv.c_str());
    }
    return 0;
}
