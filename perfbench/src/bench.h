/**
 * @file
 * Shared helpers of the repository benchmark: host clocks, order
 * statistics, CPU placement, peak RSS, and the metric report whose last
 * line is the benchmark's JSON result.
 */

#ifndef PFM_PERFBENCH_BENCH_H
#define PFM_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Scratch directory, relative to the working directory (the repository
 * root): the daemon's Unix socket lives here, and socket paths are limited
 * to ~100 characters.
 */
inline constexpr const char* kWorkDir = ".perfbench_work";

/** The command line: --workload, --seed, --seconds, --trace. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile of @p v at @p q in [0, 1]. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/**
 * Best of repeated timings of the same work. The host is shared, and
 * co-tenant bursts slow a run by up to ~60% for seconds at a time: over
 * 120 s of back-to-back 0.13 s astar legs, the median of a 10 s window
 * moved by 26% (IQR / median) from window to window, its p10 by 8%, and
 * its minimum by 3%. Timings that gate regressions therefore take the
 * minimum of many short repeats; medians and tails are printed beside
 * them.
 */
inline double
best(const std::vector<double>& v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/**
 * The tail of a latency sample: the highest percentile that still has at
 * least ten samples beyond it, never below the median.
 */
struct Tail {
    double value = 0;
    double pct = 50;
    std::size_t samples = 0;
};

inline Tail
tailOf(const std::vector<double>& v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() > 20)
        t.pct = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
    t.value = quantile(v, t.pct / 100.0);
    return t;
}

/**
 * CPU placement. Co-tenant load on this kind of shared host is per CPU
 * (one vCPU can run a leg 1.5x slower than another for seconds), and the
 * scheduler keeps a thread where it is, so a whole run can sit on a busy
 * CPU. The benchmark therefore rotates its threads over the CPUs it may
 * use, and best() picks the repeats that ran on a quiet one.
 */
std::vector<int> allowedCpus();

/** Pin the calling thread to @p cpu. */
void pinThread(int cpu);

/** Pin every thread of this process to @p cpus. */
void pinProcess(const std::vector<int>& cpus);

/** Peak resident set size of this process, MiB. */
inline double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/**
 * Operation accounting and the metric list. print() writes one human line
 * per metric (name, value, unit, note) and then the JSON result
 * {correct, attempted, failed, metrics} as the last line of standard
 * output.
 */
class Report
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit,
        const std::string& note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    /** A human-readable line printed with the metrics (not in the JSON). */
    void note(const std::string& text) { notes_.push_back(text); }

    /** Count one operation; @p ok false records it as failed. */
    void
    op(bool ok, const std::string& what = "")
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    void
    print() const
    {
        for (const Metric& m : metrics_)
            std::printf("%-34s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.note.c_str());
        for (const std::string& n : notes_)
            std::printf("  %s\n", n.c_str());
        std::printf("%-34s %18.6f %-6s %llu failed of %llu attempted\n",
                    "error_rate",
                    attempted_ ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 1.0,
                    "ratio", static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PFM_PERFBENCH_BENCH_H
