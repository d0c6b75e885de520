/**
 * @file
 * pfm_perfbench: the repository benchmark (see ../README.md).
 *
 *   pfm_perfbench --workload <astar_pfm|bwaves_mem|daemon_farm>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
 * metrics. Human-readable lines come first; the last line of standard
 * output is one JSON object {correct, attempted, failed, metrics}. The
 * exit status is non-zero when any correctness check failed. Scratch files
 * go to kWorkDir.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/log.h"
#include "farm.h"
#include "layers.h"
#include "sim/options.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

/** A workload that runs one simulation configuration in-process. */
struct SimWorkload {
    const char* name;
    const char* workload;
    const char* tokens;
    std::uint64_t warmup;  ///< plus 1000 * (seed % 16)
    std::uint64_t leg;     ///< instructions per leg, warmup included
};

const SimWorkload kSimWorkloads[] = {
    // fig08 headline config: compute- and branch-bound.
    {"astar_pfm", "astar", "clk4_w4 delay0 queue32 portALL", 50'000,
     250'000},
    // FSM prefetcher: memory-bound, MSHR stalls at L1D/L2.
    {"bwaves_mem", "bwaves", "", 25'000, 100'000},
};

constexpr int kSetupSamples = 9;  ///< constructions before the legs
constexpr int kMinLegs = 8;

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "pfm_perfbench: %s\nusage: pfm_perfbench --workload "
                 "<astar_pfm|bwaves_mem|daemon_farm> --seed <n> --seconds "
                 "<s> --trace <0|1>\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char* v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v);
        else if (flag == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty() || !(a.seconds > 0))
        usage("--workload and a positive --seconds are required");
    return a;
}

/**
 * End-to-end run of a single-configuration workload: set-up samples, then
 * legs (construct + run() of a fixed budget) back to back until the time
 * is up. Every leg must reproduce the first leg bit for bit.
 */
void
runSimWorkload(const SimWorkload& w, const Args& args, Report& report)
{
    pfm::SimOptions opt;
    opt.workload = w.workload;
    opt.component = "auto";
    if (*w.tokens)
        pfm::applyTokens(opt, w.tokens);
    // The seed moves the warmup boundary; a leg's length stays fixed.
    opt.warmup_instructions = w.warmup + 1'000 * (args.seed % 16);
    opt.max_instructions = w.leg - opt.warmup_instructions;

    if (args.trace) {
        LayerTotals totals;
        probeLayers(opt, args.seconds / 2, w.name, totals, report);
        reportLayers(totals, nullptr, report);
        return;
    }

    // Each construction and leg runs on the next CPU (see allowedCpus).
    const std::vector<int> cpus = allowedCpus();
    std::size_t placement = 0;
    auto nextCpu = [&] {
        if (!cpus.empty())
            pinThread(cpus[placement++ % cpus.size()]);
    };

    std::vector<double> setup_s;
    for (int i = 0; i < kSetupSamples; ++i) {
        nextCpu();
        const Clock::time_point t0 = Clock::now();
        auto sim = std::make_unique<pfm::Simulator>(opt);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    const std::uint64_t expect = w.leg;
    std::string reference;
    std::uint64_t retired = 0;
    std::vector<double> run_s, leg_ms;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(leg_ms.size()) < kMinLegs ||
           secondsBetween(start, Clock::now()) < args.seconds) {
        nextCpu();
        const Clock::time_point t0 = Clock::now();
        auto sim = std::make_unique<pfm::Simulator>(opt);
        const Clock::time_point t1 = Clock::now();
        const pfm::SimResult r = sim->run();
        const Clock::time_point t2 = Clock::now();

        setup_s.push_back(secondsBetween(t0, t1));
        run_s.push_back(secondsBetween(t1, t2));
        leg_ms.push_back(1e3 * secondsBetween(t0, t2));

        const std::string fp = simFingerprint(*sim, r);
        if (reference.empty()) {
            reference = fp;
            retired = r.instructions;
            // The last cycle may retire up to retire_width - 1 extra.
            report.op(r.instructions >= expect &&
                          r.instructions < expect + opt.core.retire_width &&
                          r.ipc > 0 && !r.finished,
                      std::string(w.name) + ": leg retired " +
                          std::to_string(r.instructions) + " of " +
                          std::to_string(expect) + " instructions");
        } else {
            report.op(fp == reference,
                      std::string(w.name) + ": leg differs from the first");
        }
    }

    pinProcess(cpus);

    report.add("minstr_per_s",
               static_cast<double>(retired) / best(run_s) / 1e6,
               "Minstr/s", "instructions retired by run() / best run() time");
    report.add("setup_s", median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) +
                   " constructions");
    report.add("leg_ms", best(leg_ms), "ms",
               "best of " + std::to_string(leg_ms.size()) + " legs of " +
                   std::to_string(retired) + " instructions");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    const Tail tail = tailOf(leg_ms);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "leg latency: p50 %.3f ms, p%.1f %.3f ms over %zu legs",
                  median(leg_ms), tail.pct, tail.value, tail.samples);
    report.note(note);
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    pfm::log_detail::setVerbosity(0);
    std::filesystem::create_directories(kWorkDir);

    const SimWorkload* sim = nullptr;
    for (const SimWorkload& w : kSimWorkloads)
        if (args.workload == w.name)
            sim = &w;
    if (!sim && args.workload != "daemon_farm")
        usage(("unknown workload " + args.workload).c_str());

    Report report;
    try {
        // A user-level simulator error becomes a failed operation.
        pfm::ScopedFatalThrow throws;
        if (sim) {
            runSimWorkload(*sim, args, report);
        } else {
            runFarm(args, report);
        }
    } catch (const std::exception& e) {
        report.op(false, e.what());
    }
    report.print();
    return report.correct() ? 0 : 1;
}
