/**
 * @file
 * SweepRunner tests: the parallel executor must produce byte-identical
 * BENCH rows (tests/identity.h) to serial execution of the same spec, in
 * spec order, for any worker count; plus --jobs/PFM_JOBS resolution and
 * the BENCH json emitter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "identity.h"
#include "sim/stats_io.h"
#include "sim/sweep.h"

namespace pfm {
namespace {

SimOptions
tinyOptions(const std::string& workload, const std::string& component,
            const std::string& tokens = "")
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = 5'000;
    o.max_instructions = 30'000;
    if (!tokens.empty())
        applyTokens(o, tokens);
    return o;
}

/** Two workloads x {baseline, custom component}: the smoke sweep. */
SweepSpec
twoWorkloadSpec()
{
    SweepSpec spec;
    RunHandle abase =
        spec.add("astar/base", tinyOptions("astar", "none"));
    spec.add("astar/pfm",
             tinyOptions("astar", "auto", "clk4_w4 delay0 queue32 portALL"),
             abase);
    RunHandle bbase =
        spec.add("bfs/base", tinyOptions("bfs-roads", "none"));
    spec.add("bfs/pfm",
             tinyOptions("bfs-roads", "auto",
                         "clk4_w4 delay0 queue32 portALL"),
             bbase);
    return spec;
}

TEST(Sweep, ParallelBitIdenticalToSerial)
{
    SweepSpec spec = twoWorkloadSpec();

    // Serial references computed directly through runSim().
    std::vector<SimResult> reference;
    for (const SweepRun& run : spec.runs())
        reference.push_back(runSim(run.opt));

    SweepRunner parallel(4);
    parallel.run(spec);
    ASSERT_EQ(parallel.results().size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        SCOPED_TRACE(spec.runs()[i].label);
        expectSameRow(reference[i], parallel.results()[i].sim);
    }
}

TEST(Sweep, SpecOrderDeterministicAcrossJobCounts)
{
    SweepSpec spec = twoWorkloadSpec();

    SweepRunner jobs1(1);
    jobs1.run(spec);
    SweepRunner jobs4(4);
    jobs4.run(spec);

    ASSERT_EQ(jobs1.results().size(), jobs4.results().size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        SCOPED_TRACE(spec.runs()[i].label);
        expectSameRow(jobs1.results()[i].sim, jobs4.results()[i].sim);
    }
}

TEST(Sweep, ResultsIndexedByHandle)
{
    SweepSpec spec;
    RunHandle base = spec.add("base", tinyOptions("astar", "none"));
    RunHandle pfm = spec.add(
        "pfm", tinyOptions("astar", "auto", "clk4_w4 delay0 queue32 portALL"),
        base);

    SweepRunner runner(2);
    runner.run(spec);
    EXPECT_GT(runner.sim(base).ipc, 0.0);
    EXPECT_GT(runner.sim(pfm).ipc, 0.0);
    EXPECT_GE(runner.result(base).wall_ms, 0.0);
    EXPECT_GE(runner.totalWallMs(), runner.result(base).wall_ms);
}

TEST(Sweep, AddProductEnumeratesInSpecOrder)
{
    SweepSpec spec;
    auto handles = spec.addProduct({"astar", "bfs-roads"}, "auto",
                                   {"clk4_w4", "clk8_w1"});
    ASSERT_EQ(handles.size(), 4u);
    EXPECT_EQ(spec.runs()[0].label, "astar/clk4_w4");
    EXPECT_EQ(spec.runs()[1].label, "astar/clk8_w1");
    EXPECT_EQ(spec.runs()[2].label, "bfs-roads/clk4_w4");
    EXPECT_EQ(spec.runs()[3].label, "bfs-roads/clk8_w1");
    EXPECT_EQ(spec.runs()[2].opt.workload, "bfs-roads");
    EXPECT_EQ(spec.runs()[2].opt.pfm.clk_div, 4u);
    EXPECT_EQ(spec.runs()[3].opt.pfm.clk_div, 8u);
}

TEST(Sweep, ResolveJobsPrecedence)
{
    unsetenv("PFM_JOBS");
    EXPECT_GE(resolveJobs(), 1u);

    char prog[] = "bench";
    char jobs_eq[] = "--jobs=3";
    char* argv_eq[] = {prog, jobs_eq};
    EXPECT_EQ(resolveJobs(2, argv_eq), 3u);

    char jobs_flag[] = "--jobs";
    char jobs_val[] = "7";
    char* argv_flag[] = {prog, jobs_flag, jobs_val};
    EXPECT_EQ(resolveJobs(3, argv_flag), 7u);

    char jshort[] = "-j5";
    char* argv_short[] = {prog, jshort};
    EXPECT_EQ(resolveJobs(2, argv_short), 5u);

    setenv("PFM_JOBS", "2", 1);
    EXPECT_EQ(resolveJobs(), 2u);
    // argv wins over the environment.
    EXPECT_EQ(resolveJobs(2, argv_eq), 3u);
    unsetenv("PFM_JOBS");
}

TEST(Sweep, JsonWriterSchema)
{
    std::vector<BenchJsonRow> rows(2);
    rows[0].label = "astar/base";
    rows[0].ipc = 1.25;
    rows[0].mpki = 31.9;
    rows[0].cycles = 1000;
    rows[0].instructions = 1250;
    rows[0].wall_ms = 12.5;
    rows[1].label = "astar/\"quoted\"";
    rows[1].has_speedup = true;
    rows[1].speedup_pct = 154.0;

    std::ostringstream os;
    writeBenchJson(os, "fig99", 4, 42.0, rows);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"bench\": \"fig99\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"astar/base\""), std::string::npos);
    EXPECT_NE(json.find("\"speedup_pct\": 154"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    // Row without a speedup base must not emit the key at all.
    EXPECT_EQ(json.find("speedup_pct\": 0"), std::string::npos);
}

TEST(Sweep, EmitBenchJsonWritesFile)
{
    SweepSpec spec;
    RunHandle base = spec.add("base", tinyOptions("astar", "none"));
    spec.add("pfm",
             tinyOptions("astar", "auto", "clk4_w4 delay0 queue32 portALL"),
             base);
    SweepRunner runner(2);
    runner.run(spec);

    setenv("PFM_BENCH_JSON_DIR", "/tmp", 1);
    std::string path = emitBenchJson("sweep_unit_test", spec, runner);
    unsetenv("PFM_BENCH_JSON_DIR");
    ASSERT_EQ(path, "/tmp/BENCH_sweep_unit_test.json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"speedup_pct\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"wall_ms\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace pfm
