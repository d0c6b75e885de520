/**
 * @file
 * Figure 17: speedups of the five custom prefetchers for different C and
 * W (all configs: delay0 queue32 portALL). The paper's key observation is
 * resistance to C and W.
 *
 * `--sharded` switches to the checkpoint identity harness: per workload
 * one bare-core warmup leg is checkpointed at the warmup boundary and
 * every configuration restores from it as a measurement leg, alongside an
 * uninterrupted deferred-attach reference run of the same configuration.
 * Restored and reference legs must agree bit for bit (exit 1 otherwise),
 * and the emitted BENCH_fig17.json records the serial-vs-sharded wall
 * time of every leg.
 */

#include <cstring>

#include "bench_util.h"

using namespace pfm;

namespace {

const char* kWorkloads[] = {"libquantum", "bwaves", "lbm", "milc", "leslie"};
const char* kCfgs[] = {"clk1_w1", "clk4_w1", "clk4_w4", "clk8_w1"};

/**
 * Options for one sharded-mode leg: the component attaches at the warmup
 * boundary, so the warmup phase is bare-core and one checkpoint serves
 * every configuration. Sharded mode models the long-run scenario the
 * checkpoint subsystem exists for — a warmup as long as the measurement
 * itself — so restoring (one file read) is much cheaper than re-running
 * warmup in every leg. Serial reference legs use the same warmup length,
 * keeping the identity comparison like-for-like.
 */
SimOptions
shardedOptions(const std::string& workload, const std::string& component,
               const std::string& tokens = "", bool defer = true)
{
    SimOptions o = benchOptions(workload, component, tokens);
    o.warmup_instructions = o.max_instructions;
    o.defer_component = defer;
    return o;
}

int
runClassic(int argc, char** argv)
{
    SweepSpec spec;
    std::vector<RunHandle> bases;
    std::vector<std::vector<RunHandle>> runs;
    for (const char* wl : kWorkloads) {
        RunHandle base = spec.add(std::string(wl) + "/base",
                                  benchOptions(wl, "none"));
        bases.push_back(base);
        runs.emplace_back();
        for (const char* cfg : kCfgs)
            runs.back().push_back(spec.add(
                std::string(wl) + "/" + cfg,
                benchOptions(wl, "auto",
                             std::string(cfg) + " delay0 queue32 portALL"),
                base));
    }

    SweepRunner runner = benchRunner(argc, argv);
    runner.run(spec);

    reportHeader("Figure 17: custom prefetcher speedups vs clkC_wW "
                 "(delay0 queue32 portALL)");
    for (size_t w = 0; w < runs.size(); ++w) {
        std::printf("  %s (baseline IPC %.2f):\n", kWorkloads[w],
                    runner.sim(bases[w]).ipc);
        for (size_t c = 0; c < runs[w].size(); ++c)
            reportRow(std::string("  ") + kCfgs[c],
                      speedupPct(runner.sim(bases[w]),
                                 runner.sim(runs[w][c])));
    }
    reportNote("paper: performance is very resistant to C and W");

    emitBenchJson("fig17", spec, runner);
    return 0;
}

int
runSharded(int argc, char** argv)
{
    struct LegPair {
        std::string name;
        RunHandle serial;
        RunHandle shard;
    };

    SweepSpec spec;
    std::vector<RunHandle> warmups;
    std::vector<LegPair> pairs;
    std::vector<RunHandle> shard_bases;
    std::vector<std::vector<RunHandle>> shard_runs;

    for (const char* wl : kWorkloads) {
        RunHandle warm = spec.addWarmup(
            std::string("warmup/") + wl,
            shardedOptions(wl, "none", "", false));
        warmups.push_back(warm);

        RunHandle sbase = spec.add(std::string("serial/") + wl + "/base",
                                   shardedOptions(wl, "none"));
        RunHandle hbase =
            spec.addMeasurement(std::string("sharded/") + wl + "/base",
                                shardedOptions(wl, "none"), warm);
        pairs.push_back({std::string(wl) + "/base", sbase, hbase});
        shard_bases.push_back(hbase);
        shard_runs.emplace_back();

        for (const char* cfg : kCfgs) {
            std::string tokens =
                std::string(cfg) + " delay0 queue32 portALL";
            RunHandle s =
                spec.add(std::string("serial/") + wl + "/" + cfg,
                         shardedOptions(wl, "auto", tokens), sbase);
            RunHandle h = spec.addMeasurement(
                std::string("sharded/") + wl + "/" + cfg,
                shardedOptions(wl, "auto", tokens), warm, hbase);
            pairs.push_back({std::string(wl) + "/" + cfg, s, h});
            shard_runs.back().push_back(h);
        }
    }

    SweepRunner runner = benchRunner(argc, argv);
    runner.run(spec);

    reportHeader("Figure 17 (sharded): warmup-once checkpoint legs vs "
                 "uninterrupted runs");

    // Identity gate: a restored measurement leg must be indistinguishable
    // from the uninterrupted deferred-attach run of the same config, down
    // to every column of its deterministic BENCH row.
    auto row = [](const SimResult& r) {
        return formatBenchJsonRow(benchJsonRow("leg", r), false);
    };
    bool identical = true;
    for (const LegPair& p : pairs) {
        const SimResult& a = runner.sim(p.serial);
        const SimResult& b = runner.sim(p.shard);
        if (row(a) != row(b)) {
            identical = false;
            std::printf("  IDENTITY MISMATCH %s: serial ipc=%.17g "
                        "cycles=%llu vs sharded ipc=%.17g cycles=%llu\n",
                        p.name.c_str(), a.ipc,
                        (unsigned long long)a.cycles, b.ipc,
                        (unsigned long long)b.cycles);
        }
    }
    reportNote(identical
                   ? "identity check: all restored legs byte-identical to "
                     "uninterrupted runs"
                   : "identity check FAILED");

    double warm_ms = 0, serial_ms = 0, shard_ms = 0;
    for (RunHandle h : warmups)
        warm_ms += runner.result(h).wall_ms;
    for (const LegPair& p : pairs) {
        serial_ms += runner.result(p.serial).wall_ms;
        shard_ms += runner.result(p.shard).wall_ms;
    }
    std::printf("  wall (cpu-time sums): serial %.0f ms vs sharded "
                "%.0f ms warmup + %.0f ms measurement (%ux warmup reuse, "
                "--jobs=%u)\n",
                serial_ms, warm_ms, shard_ms,
                static_cast<unsigned>(pairs.size() / warmups.size()),
                runner.jobs());

    for (size_t w = 0; w < shard_runs.size(); ++w) {
        std::printf("  %s (baseline IPC %.2f):\n", kWorkloads[w],
                    runner.sim(shard_bases[w]).ipc);
        for (size_t c = 0; c < shard_runs[w].size(); ++c)
            reportRow(std::string("  ") + kCfgs[c],
                      speedupPct(runner.sim(shard_bases[w]),
                                 runner.sim(shard_runs[w][c])));
    }

    emitBenchJson("fig17", spec, runner);
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--sharded") == 0)
            return runSharded(argc, argv);
    return runClassic(argc, argv);
}
