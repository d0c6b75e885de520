#include "sim/sweep.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <thread>

#include <unistd.h>

#include "common/log.h"
#include "sim/checkpoint.h"
#include "sim/stats_io.h"

namespace pfm {

namespace {

unsigned
clampJobs(long n)
{
    if (n < 1)
        return 1;
    if (n > 256)
        return 256;
    return static_cast<unsigned>(n);
}

} // namespace

SweepResult
runSweepLeg(const SweepRun& run, const std::string& save_path,
            const std::string& load_path, const std::string& store_subdir)
{
    using clock = std::chrono::steady_clock;
    SweepResult res;
    auto t0 = clock::now();
    SimOptions opt = run.opt;
    if (!save_path.empty()) {
        opt.checkpoint_save = save_path;
        opt.ckpt_store = store_subdir;
        opt.max_instructions = 0;
    }
    if (!load_path.empty())
        opt.checkpoint_load = load_path;
    Simulator sim(opt);
    res.sim = sim.run();
    if (run.aux_fn)
        res.aux = run.aux_fn(sim, res.sim);
    res.wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    return res;
}

RunHandle
SweepSpec::add(std::string label, SimOptions opt, RunHandle speedup_base)
{
    SweepRun run;
    run.label = std::move(label);
    run.opt = std::move(opt);
    run.speedup_base = speedup_base;
    return add(std::move(run));
}

RunHandle
SweepSpec::add(SweepRun run)
{
    pfm_assert(!run.speedup_base.valid() ||
                   run.speedup_base.index < runs_.size(),
               "speedup base must be added before its dependents");
    pfm_assert(!run.warmup_leg.valid() ||
                   (run.warmup_leg.index < runs_.size() &&
                    runs_[run.warmup_leg.index].warmup_only),
               "warmup leg must be added before its dependents and be "
               "warmup_only");
    pfm_assert(!(run.warmup_only && run.warmup_leg.valid()),
               "a warmup leg cannot itself restore a checkpoint");
    runs_.push_back(std::move(run));
    return RunHandle{runs_.size() - 1};
}

RunHandle
SweepSpec::addWarmup(std::string label, SimOptions opt)
{
    SweepRun run;
    run.label = std::move(label);
    run.opt = std::move(opt);
    run.warmup_only = true;
    return add(std::move(run));
}

RunHandle
SweepSpec::addMeasurement(std::string label, SimOptions opt,
                          RunHandle warmup_leg, RunHandle speedup_base)
{
    pfm_assert(warmup_leg.valid(), "measurement legs need a warmup leg");
    SweepRun run;
    run.label = std::move(label);
    run.opt = std::move(opt);
    run.speedup_base = speedup_base;
    run.warmup_leg = warmup_leg;
    return add(std::move(run));
}

std::vector<RunHandle>
SweepSpec::addProduct(const std::vector<std::string>& workloads,
                      const std::string& component,
                      const std::vector<std::string>& token_sets)
{
    std::vector<RunHandle> handles;
    handles.reserve(workloads.size() * token_sets.size());
    for (const std::string& wl : workloads) {
        for (const std::string& tokens : token_sets) {
            SimOptions o;
            o.workload = wl;
            o.component = component;
            if (!tokens.empty())
                applyTokens(o, tokens);
            handles.push_back(
                add(wl + "/" + (tokens.empty() ? "default" : tokens),
                    std::move(o)));
        }
    }
    return handles;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? clampJobs(jobs) : resolveJobs())
{
}

const std::vector<SweepResult>&
SweepRunner::run(const SweepSpec& spec)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    const std::vector<SweepRun>& runs = spec.runs();
    results_.clear();
    results_.resize(runs.size());

    // Auto-assigned checkpoint paths for warmup legs, PID-qualified so
    // concurrent processes sharing a directory never collide.
    std::string dir = ".";
    if (const char* env = std::getenv("PFM_CKPT_DIR"))
        dir = env;
    std::vector<std::string> ckpt_path(runs.size());
    bool sharded = false;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].warmup_only) {
            ckpt_path[i] =
                dir + "/pfm_warmup_" +
                std::to_string(static_cast<unsigned long>(::getpid())) +
                "_" + std::to_string(i) + ".ckpt";
            sharded = true;
        }
    }

    // Two phases: checkpoint producers (warmup legs) first, then every
    // other run — the only cross-run dependency a spec can express.
    // Within a phase workers claim runs in spec order via an atomic
    // cursor and write disjoint result slots, so results (and reports
    // derived from them) are byte-identical for any worker count.
    std::vector<std::size_t> phases[2];
    for (std::size_t i = 0; i < runs.size(); ++i)
        phases[runs[i].warmup_only ? 0 : 1].push_back(i);

    // Warmup checkpoints share one store: configs sharing a bare-core
    // warmup dedup to one blob set per unique payload instead of N
    // copies.
    const std::string store_subdir =
        sharded ? "pfm_store_" +
                      std::to_string(static_cast<unsigned long>(::getpid()))
                : std::string();

    static const std::string kNoPath;
    auto run_one = [&](std::size_t i) {
        const SweepRun& r = runs[i];
        const std::string& load = r.warmup_leg.valid()
                                      ? ckpt_path[r.warmup_leg.index]
                                      : kNoPath;
        results_[i] = runSweepLeg(r, ckpt_path[i], load, store_subdir);
    };

    for (const std::vector<std::size_t>& batch : phases) {
        if (batch.empty())
            continue;
        unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(jobs_, batch.size()));
        if (workers <= 1) {
            // Serial execution on the calling thread (reference semantics
            // the parallel path must reproduce bit-for-bit).
            for (std::size_t i : batch)
                run_one(i);
            continue;
        }
        // Packaged tasks so worker exceptions surface deterministically
        // when the futures are drained in spec order.
        std::vector<std::packaged_task<void()>> tasks;
        std::vector<std::future<void>> futures;
        tasks.reserve(batch.size());
        futures.reserve(batch.size());
        for (std::size_t i : batch) {
            tasks.emplace_back([&run_one, i] { run_one(i); });
            futures.push_back(tasks.back().get_future());
        }

        std::atomic<std::size_t> cursor{0};
        auto worker = [&tasks, &cursor] {
            for (;;) {
                std::size_t k = cursor.fetch_add(1);
                if (k >= tasks.size())
                    return;
                tasks[k]();
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();

        for (std::future<void>& f : futures)
            f.get();
    }

    // Warmup checkpoints are scratch artifacts of this run() call; keep
    // them only on explicit request (debugging a sharded identity diff).
    if (sharded && !std::getenv("PFM_KEEP_CHECKPOINTS")) {
        for (const std::string& p : ckpt_path)
            if (!p.empty())
                std::remove(p.c_str());
        if (!store_subdir.empty())
            ckptStoreRemoveDir(dir + "/" + store_subdir);
    }

    total_wall_ms_ =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    return results_;
}

const SweepResult&
SweepRunner::result(RunHandle h) const
{
    pfm_assert(h.valid() && h.index < results_.size(),
               "invalid run handle (did run() execute this spec?)");
    return results_[h.index];
}

namespace {

/**
 * Parse a jobs value strictly: the whole string must be a positive
 * number (0x/octal accepted). Returns -1 on empty/garbage/zero/negative
 * so callers can distinguish "invalid" from any accepted count.
 */
long
parseJobsValue(const char* s)
{
    char* end = nullptr;
    errno = 0;
    long v = std::strtol(s, &end, 0);
    if (end == s || *end != '\0' || errno == ERANGE || v <= 0)
        return -1;
    return v;
}

} // namespace

unsigned
resolveJobs(int argc, char** argv)
{
    long jobs = 0;
    if (const char* env = std::getenv("PFM_JOBS")) {
        jobs = parseJobsValue(env);
        if (jobs < 0) {
            // Environment is advisory: warn and fall through to the
            // hardware default rather than killing a batch run.
            pfm_warn("ignoring invalid PFM_JOBS value '%s'", env);
            jobs = 0;
        }
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char* value = nullptr;
        if (arg.rfind("--jobs=", 0) == 0)
            value = arg.c_str() + 7;
        else if (arg == "--jobs" && i + 1 < argc)
            value = argv[++i];
        else if (arg.rfind("-j", 0) == 0 && arg.size() > 2)
            value = arg.c_str() + 2;
        if (!value)
            continue;
        jobs = parseJobsValue(value);
        // An explicit flag the user typed must not be silently replaced
        // by hardware_concurrency (jobs=0 used to do exactly that).
        if (jobs < 0)
            pfm_fatal("invalid jobs count '%s' in '%s'", value, arg.c_str());
    }
    if (jobs > 0)
        return clampJobs(jobs);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? clampJobs(hw) : 1;
}

BenchJsonRow
benchJsonRow(const std::string& label, const SimResult& r, double wall_ms)
{
    BenchJsonRow row;
    row.label = label;
    row.ipc = r.ipc;
    row.mpki = r.mpki;
    row.cycles = r.cycles;
    row.instructions = r.instructions;
    row.wall_ms = wall_ms;
    row.ports = r.ports;
    if (r.has_pf) {
        row.has_pf = true;
        row.pf_issued = r.pf_issued;
        row.pf_useful = r.pf_useful;
        row.pf_useless = r.pf_useless;
        row.pf_late = r.pf_late;
        row.pf_inflight = r.pf_inflight;
        row.pf_coverage_pct = r.pf_coverage_pct;
        row.pf_accuracy_pct = r.pf_accuracy_pct;
    }
    return row;
}

std::string
emitBenchJson(const std::string& name, const SweepSpec& spec,
              const SweepRunner& runner)
{
    const std::vector<SweepRun>& runs = spec.runs();
    const std::vector<SweepResult>& results = runner.results();
    pfm_assert(runs.size() == results.size(),
               "emitBenchJson before run() completed");

    std::vector<BenchJsonRow> rows;
    rows.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        BenchJsonRow row = benchJsonRow(runs[i].label, results[i].sim,
                                        results[i].wall_ms);
        if (runs[i].speedup_base.valid()) {
            row.has_speedup = true;
            row.speedup_pct = speedupPct(
                results[runs[i].speedup_base.index].sim, results[i].sim);
        }
        rows.push_back(std::move(row));
    }

    std::string dir = ".";
    if (const char* env = std::getenv("PFM_BENCH_JSON_DIR"))
        dir = env;
    std::string path = dir + "/BENCH_" + name + ".json";
    std::ofstream os(path);
    if (!os) {
        pfm_warn("cannot write %s", path.c_str());
        return "";
    }
    writeBenchJson(os, name, runner.jobs(), runner.totalWallMs(), rows);
    return path;
}

} // namespace pfm
