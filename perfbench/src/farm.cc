#include "farm.h"

#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "common/framing.h"
#include "layers.h"
#include "sim/daemon.h"
#include "sim/stats_io.h"
#include "sim/sweep.h"

namespace perfbench {

namespace {

namespace framing = pfm::framing;

/** The fig17 sweep: five FSM-prefetcher workloads x clkC_wW configs. */
const char* const kWorkloads[] = {"libquantum", "bwaves", "lbm", "milc",
                                  "leslie"};
const char* const kCfgs[] = {"clk1_w1", "clk4_w1", "clk4_w4", "clk8_w1"};
constexpr const char* kFixedTokens = " delay0 queue32 portALL";

constexpr unsigned kWorkers = 2;       ///< daemon worker pool
constexpr unsigned kConnections = 2;   ///< closed-loop client connections
constexpr std::uint64_t kWarmupBase = 100'000;
constexpr std::uint64_t kLegInstructions = 20'000;
constexpr std::uint64_t kFillInstructions = 1'000;
constexpr int kSetupReps = 3;
constexpr int kMinPasses = 3;
constexpr int kReplyTimeoutMs = 60'000;

struct Leg {
    std::string workload;
    std::string tokens;
};

struct LegReply {
    bool ok = false;
    std::string row;    ///< the row's deterministic JSON
    std::string error;
    double latency_ms = 0;
};

std::string
requestFor(const Leg& leg, std::uint64_t warmup, std::uint64_t instructions)
{
    return "sweep\nworkload=" + leg.workload + "\ncomponent=auto\nwarmup=" +
           std::to_string(warmup) + "\ninstructions=" +
           std::to_string(instructions) + "\nleg=" + leg.tokens + "\n";
}

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

int
connectTo(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Send @p legs from this one thread, one leg per sweep request, keeping at
 * most kConnections requests in flight (closed loop: the next request
 * goes out only when one completes). Latency runs from connect to the
 * request's `done` frame. Replies come back in leg order.
 */
std::vector<LegReply>
runLegs(const std::string& sock, const std::vector<Leg>& legs,
        std::uint64_t warmup, std::uint64_t instructions)
{
    struct InFlight {
        int fd;
        std::size_t leg;
        Clock::time_point t0;
        LegReply reply;
    };
    std::vector<LegReply> out(legs.size());
    std::vector<InFlight> active;
    std::size_t next = 0;

    auto retire = [&](std::size_t i) {
        InFlight& f = active[i];
        f.reply.latency_ms = 1e3 * secondsBetween(f.t0, Clock::now());
        ::close(f.fd);
        out[f.leg] = std::move(f.reply);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    };

    while (next < legs.size() || !active.empty()) {
        while (active.size() < kConnections && next < legs.size()) {
            InFlight f{-1, next++, Clock::now(), {}};
            f.fd = connectTo(sock);
            if (f.fd < 0 ||
                !framing::writeFrame(
                    f.fd, requestFor(legs[f.leg], warmup, instructions))) {
                if (f.fd >= 0)
                    ::close(f.fd);
                out[f.leg].error = "cannot send the request";
                continue;
            }
            active.push_back(std::move(f));
        }
        if (active.empty())
            continue;

        std::vector<pollfd> pfds;
        for (const InFlight& f : active)
            pfds.push_back({f.fd, POLLIN, 0});
        const int n = ::poll(pfds.data(), pfds.size(), kReplyTimeoutMs);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            while (!active.empty()) {
                active.back().reply.error = "no reply (timeout)";
                retire(active.size() - 1);
            }
            continue;
        }
        for (std::size_t i = pfds.size(); i-- > 0;) {
            if (!pfds[i].revents)
                continue;
            LegReply& r = active[i].reply;
            std::string frame;
            bool done = true;
            if (framing::readFrame(active[i].fd, frame, kReplyTimeoutMs) !=
                framing::ReadResult::kOk) {
                r.error = "connection lost";
            } else if (startsWith(frame, "row ")) {
                // row <index> <wall_ms> <json>
                const std::size_t a = frame.find(' ', 4);
                const std::size_t b = frame.find(' ', a + 1);
                if (a == std::string::npos || b == std::string::npos)
                    r.error = "malformed row frame";
                else
                    r.row = frame.substr(b + 1);
                done = false;
            } else if (startsWith(frame, "done ")) {
                r.ok = r.error.empty() && !r.row.empty() &&
                       frame == "done rows=1 errors=0 cancelled=0";
                if (!r.ok && r.error.empty())
                    r.error = frame;
            } else {
                // legerr / err / anything else: the leg failed.
                r.error = frame;
                done = startsWith(frame, "err ");
            }
            if (done)
                retire(i);
        }
    }
    return out;
}

/** Value of the integer field @p key in a flat JSON object, or 0. */
std::uint64_t
jsonU64(const std::string& json, const std::string& key)
{
    const std::string k = "\"" + key + "\": ";
    const std::size_t p = json.find(k);
    if (p == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + p + k.size(), nullptr, 10);
}

/** The daemon's `stats` frame payload, or "" on failure. */
std::string
queryStats(const std::string& sock)
{
    const int fd = connectTo(sock);
    if (fd < 0)
        return "";
    std::string reply;
    if (!framing::writeFrame(fd, "stats") ||
        framing::readFrame(fd, reply, kReplyTimeoutMs) !=
            framing::ReadResult::kOk ||
        !startsWith(reply, "ok {"))
        reply.clear();
    ::close(fd);
    return reply;
}

/** Options the daemon builds for @p leg (see DaemonServer::handleSweep). */
pfm::SimOptions
legOptions(const Leg& leg, std::uint64_t warmup, std::uint64_t instructions)
{
    pfm::SimOptions o;
    o.workload = leg.workload;
    o.component = "auto";
    o.warmup_instructions = warmup;
    o.max_instructions = instructions;
    pfm::applyTokens(o, leg.tokens);
    return o;
}

/**
 * The same leg run directly through runSweepLeg, uninterrupted (warmup
 * included, component deferred), rendered as the daemon renders rows.
 */
std::string
directRow(const Leg& leg, std::uint64_t warmup, std::uint64_t instructions)
{
    pfm::SweepRun run;
    run.label = leg.tokens;
    run.opt = legOptions(leg, warmup, instructions);
    run.opt.defer_component = true;
    const pfm::SweepResult res = pfm::runSweepLeg(run, "", "");
    pfm::BenchJsonRow row;
    row.label = run.label;
    row.ipc = res.sim.ipc;
    row.mpki = res.sim.mpki;
    row.cycles = res.sim.cycles;
    row.instructions = res.sim.instructions;
    row.ports = res.sim.ports;
    if (res.sim.has_pf) {
        row.has_pf = true;
        row.pf_issued = res.sim.pf_issued;
        row.pf_useful = res.sim.pf_useful;
        row.pf_useless = res.sim.pf_useless;
        row.pf_late = res.sim.pf_late;
        row.pf_inflight = res.sim.pf_inflight;
        row.pf_coverage_pct = res.sim.pf_coverage_pct;
        row.pf_accuracy_pct = res.sim.pf_accuracy_pct;
    }
    return pfm::formatBenchJsonRow(row, /*include_wall=*/false);
}

std::unique_ptr<pfm::DaemonServer>
startDaemon(const std::string& sock, const std::string& cache_dir)
{
    std::filesystem::create_directories(cache_dir);
    pfm::DaemonOptions o;
    o.socket_path = sock;
    o.jobs = kWorkers;
    o.cache_dir = cache_dir;
    auto d = std::make_unique<pfm::DaemonServer>(o);
    d->start();
    return d;
}

/** Outcome of one set-up: daemon start plus the cold cache fill. */
struct ColdStart {
    double seconds = 0;
    std::uint32_t failed_legs = 0;
};

/**
 * Start a daemon into @p daemon and fill its cache with @p fill_legs (one
 * warmup and one store save per key), timed.
 */
ColdStart
coldStart(const std::string& sock, const std::string& cache_dir,
          const std::vector<Leg>& fill_legs, std::uint64_t warmup,
          std::unique_ptr<pfm::DaemonServer>& daemon)
{
    ColdStart c;
    const Clock::time_point t0 = Clock::now();
    daemon = startDaemon(sock, cache_dir);
    for (const LegReply& r :
         runLegs(sock, fill_legs, warmup, kFillInstructions)) {
        if (!r.ok) {
            ++c.failed_legs;
            std::fprintf(stderr, "perfbench: cache fill leg: %s\n",
                         r.error.c_str());
        }
    }
    c.seconds = secondsBetween(t0, Clock::now());
    return c;
}

/**
 * coldStart() in a child process, so the extra set-ups do not add to this
 * process's peak RSS: only the daemon that serves the farm does. Must be
 * called while this process has a single thread.
 */
ColdStart
coldStartInChild(const std::string& sock, const std::string& cache_dir,
                 const std::vector<Leg>& fill_legs, std::uint64_t warmup)
{
    ColdStart c;
    c.failed_legs = static_cast<std::uint32_t>(fill_legs.size());
    int fds[2];
    if (::pipe(fds) != 0)
        return c;
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        ColdStart child = c;
        try {
            std::unique_ptr<pfm::DaemonServer> daemon;
            child = coldStart(sock, cache_dir, fill_legs, warmup, daemon);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: cold start: %s\n", e.what());
        }
        const bool sent =
            ::write(fds[1], &child, sizeof(child)) == sizeof(child);
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    if (pid > 0) {
        ColdStart got;
        if (::read(fds[0], &got, sizeof(got)) == sizeof(got))
            c = got;
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            c.failed_legs = static_cast<std::uint32_t>(fill_legs.size());
    }
    ::close(fds[0]);
    return c;
}

} // namespace

void
runFarm(const Args& opt, Report& report)
{
    const std::uint64_t warmup = kWarmupBase + 1'000 * (opt.seed % 16);
    const std::string work_dir = kWorkDir;
    const std::string sock = work_dir + "/farm.sock";
    const std::size_t n_cfgs = std::size(kCfgs);

    // The leg each warm key is checked on, and first filled with.
    std::vector<Leg> probe_legs;
    for (std::size_t w = 0; w < std::size(kWorkloads); ++w)
        probe_legs.push_back(
            {kWorkloads[w],
             std::string(kCfgs[(opt.seed + w) % n_cfgs]) + kFixedTokens});
    std::vector<Leg> farm;
    for (const char* wl : kWorkloads)
        for (const char* cfg : kCfgs)
            farm.push_back({wl, std::string(cfg) + kFixedTokens});

    // Set-up: daemon start plus the cold cache fill, repeated on fresh
    // caches. The last daemon serves the timed farm; the earlier ones run
    // in child processes.
    std::vector<double> setup_s;
    std::unique_ptr<pfm::DaemonServer> daemon;
    for (int k = 0; k < kSetupReps; ++k) {
        const std::string cache_dir =
            work_dir + "/farm-cache-" + std::to_string(k);
        const ColdStart c =
            k + 1 < kSetupReps
                ? coldStartInChild(sock, cache_dir, probe_legs, warmup)
                : coldStart(sock, cache_dir, probe_legs, warmup, daemon);
        report.op(c.failed_legs == 0,
                  "cold start " + std::to_string(k) + ": " +
                      std::to_string(c.failed_legs) + " fill legs failed");
        setup_s.push_back(c.seconds);
    }

    // The timed farm on the warm cache: whole passes over the sweep, legs
    // shuffled per pass, until the time is up. Each pass pins the whole
    // process to the next pair of CPUs (see allowedCpus), so every leg kind
    // gets repeats on each pair.
    const std::vector<int> cpus = allowedCpus();
    std::vector<std::vector<int>> placements;
    for (std::size_t i = 0; i < cpus.size(); ++i)
        for (std::size_t j = i + 1; j < cpus.size(); ++j)
            placements.push_back({cpus[i], cpus[j]});
    if (placements.empty())
        placements.push_back(cpus);
    std::mt19937_64 rng(opt.seed);
    std::map<std::string, std::string> rows;  // workload|tokens -> row
    std::map<std::string, std::vector<double>> leg_kind_ms;
    std::vector<double> pass_s;
    std::vector<double> latency_ms;
    std::uint64_t measured = 0;  // instructions measured in one pass
    const double farm_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(pass_s.size()) < kMinPasses ||
           secondsBetween(start, Clock::now()) < farm_seconds) {
        std::shuffle(farm.begin(), farm.end(), rng);
        pinProcess(placements[pass_s.size() % placements.size()]);
        const Clock::time_point t0 = Clock::now();
        const std::vector<LegReply> replies =
            runLegs(sock, farm, warmup, kLegInstructions);
        pass_s.push_back(secondsBetween(t0, Clock::now()));
        // Hand freed leg memory back between passes, so the peak RSS is
        // one pass's working set rather than heap left over from earlier
        // passes (whose number varies with host speed).
        malloc_trim(0);
        for (std::size_t i = 0; i < farm.size(); ++i) {
            const LegReply& r = replies[i];
            const std::string kind = farm[i].workload + "|" + farm[i].tokens;
            latency_ms.push_back(r.latency_ms);
            leg_kind_ms[kind].push_back(r.latency_ms);
            bool ok = r.ok;
            if (ok) {
                auto [it, first] = rows.emplace(kind, r.row);
                ok = first || it->second == r.row;
                if (first)
                    measured += jsonU64(r.row, "instructions") - warmup;
            }
            report.op(ok, "farm leg " + farm[i].workload + " " +
                              farm[i].tokens + ": " +
                              (r.ok ? "row changed between passes"
                                    : r.error));
        }
    }

    pinProcess(cpus);

    const std::string stats = queryStats(sock);
    const std::uint64_t hits = jsonU64(stats, "hits");
    const std::uint64_t misses = jsonU64(stats, "misses");
    report.op(!stats.empty() && jsonU64(stats, "legs_err") == 0 &&
                  jsonU64(stats, "legs_cancelled") == 0,
              "daemon stats report failed or cancelled legs: " + stats);
    daemon.reset();
    for (int k = 0; k < kSetupReps; ++k)
        std::filesystem::remove_all(work_dir + "/farm-cache-" +
                                    std::to_string(k));

    // Identity gate: per warm key, the daemon's row must be byte-identical
    // to a direct runSweepLeg of the same leg.
    for (const Leg& leg : probe_legs) {
        auto it = rows.find(leg.workload + "|" + leg.tokens);
        report.op(it != rows.end() &&
                      it->second ==
                          directRow(leg, warmup, kLegInstructions),
                  "daemon row != direct runSweepLeg for " + leg.workload +
                      " " + leg.tokens);
    }

    const Tail tail = tailOf(latency_ms);
    if (!opt.trace) {
        // A leg kind's latency is its best over the passes. The farm's
        // typical leg is the median kind; its throughput is one client
        // connection's: measured instructions over summed leg latency.
        std::vector<double> kind_ms;
        double sum_best_s = 0;
        for (const auto& [kind, ms] : leg_kind_ms) {
            kind_ms.push_back(best(ms));
            sum_best_s += best(ms) / 1e3;
        }
        report.add("minstr_per_s",
                   static_cast<double>(measured) / sum_best_s / 1e6,
                   "Minstr/s",
                   "measured instructions / summed best latency of the " +
                       std::to_string(kind_ms.size()) + " leg kinds");
        report.add("setup_s", median(setup_s), "s",
                   "median of " + std::to_string(setup_s.size()) +
                       " daemon starts + cold fills of " +
                       std::to_string(probe_legs.size()) + " keys");
        report.add("leg_ms", median(kind_ms), "ms",
                   "median over " + std::to_string(kind_ms.size()) +
                       " leg kinds of their best latency");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        char note[160];
        std::snprintf(note, sizeof(note),
                      "%zu passes of %zu legs: best %.3f s, median %.3f s; "
                      "leg latency p50 %.3f ms, p%.1f %.3f ms over %zu legs",
                      pass_s.size(), farm.size(), best(pass_s),
                      median(pass_s), median(latency_ms), tail.pct,
                      tail.value, tail.samples);
        report.note(note);
        return;
    }

    // Traced: the per-layer probe of each warm key's leg, with the
    // component attached from construction so the decorator stays
    // installed through run().
    LayerTotals totals;
    for (const Leg& leg : probe_legs) {
        pfm::SimOptions o = legOptions(leg, warmup, kLegInstructions);
        probeLayers(o, opt.seconds / 20, "farm-" + leg.workload, totals,
                    report);
    }
    DaemonLayer daemon_layer;
    daemon_layer.cache_hit_ratio =
        hits + misses
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    daemon_layer.farm_s = median(pass_s);
    daemon_layer.leg_p50_ms = median(latency_ms);
    daemon_layer.leg_tail = tail;
    reportLayers(totals, &daemon_layer, report);
}

} // namespace perfbench
