#include "layers.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "branch/tage_scl.h"
#include "isa/functional_engine.h"
#include "memory/hierarchy.h"
#include "workloads/registry.h"

namespace perfbench {

using pfm::Addr;
using pfm::Cycle;
using pfm::DynInst;
using pfm::SimOptions;
using pfm::SimResult;
using pfm::Simulator;

namespace {

const char* const kHookNames[kNumHooks] = {
    "fetch_override", "on_retire",        "on_squash",
    "on_cycle",       "next_event_cycle", "on_fast_forward",
};

constexpr int kPhaseSamples = 7;      ///< makeWorkload / construct samples
constexpr int kMaxRunPairs = 15;      ///< untraced+traced pairs per probe
constexpr int kReplayReps = 3;        ///< repeats of each isolated replay
constexpr int kCkptReps = 3;          ///< checkpoint save/load repeats
constexpr std::size_t kSpanCap = 1u << 16;  ///< hook spans kept per probe

volatile std::uint64_t replay_sink = 0;

inline std::uint64_t
tscNow() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/** The hooks of a bare core: CoreHooks' own no-op defaults. */
pfm::CoreHooks&
innerHooks(Simulator& sim)
{
    static pfm::CoreHooks none;
    if (sim.pfm())
        return *sim.pfm();
    return none;
}

struct HookSpan {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    unsigned kind = 0;
};

/**
 * Timing decorator: TSC-stamps every CoreHooks call, forwards it to the
 * simulator's own hooks unchanged, and keeps per-hook totals plus the
 * first kSpanCap spans in memory.
 */
class TimingHooks final : public pfm::CoreHooks
{
  public:
    explicit TimingHooks(pfm::CoreHooks& inner) : inner_(inner)
    {
        spans_.reserve(kSpanCap);
    }

    pfm::FetchOverride
    fetchOverride(const DynInst& d, bool replayed, Cycle now) override
    {
        const std::uint64_t t0 = tscNow();
        pfm::FetchOverride r = inner_.fetchOverride(d, replayed, now);
        close(kFetchOverride, t0);
        return r;
    }

    pfm::RetireDecision
    onRetire(const DynInst& d, Cycle now) override
    {
        const std::uint64_t t0 = tscNow();
        pfm::RetireDecision r = inner_.onRetire(d, now);
        close(kOnRetire, t0);
        return r;
    }

    Cycle
    onSquash(Cycle now, pfm::SeqNum last_kept, const DynInst* branch) override
    {
        const std::uint64_t t0 = tscNow();
        Cycle r = inner_.onSquash(now, last_kept, branch);
        close(kOnSquash, t0);
        return r;
    }

    void
    onCycle(Cycle now, unsigned free_ls_slots,
            const pfm::IssueUsage& usage) override
    {
        const std::uint64_t t0 = tscNow();
        inner_.onCycle(now, free_ls_slots, usage);
        close(kOnCycle, t0);
    }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        const std::uint64_t t0 = tscNow();
        Cycle r = inner_.nextEventCycle(now);
        close(kNextEventCycle, t0);
        return r;
    }

    void
    onFastForward(Cycle from, Cycle to) override
    {
        const std::uint64_t t0 = tscNow();
        inner_.onFastForward(from, to);
        close(kOnFastForward, t0);
    }

    std::uint64_t calls(unsigned h) const { return calls_[h]; }
    std::uint64_t tsc(unsigned h) const { return tsc_[h]; }
    const std::vector<HookSpan>& spans() const { return spans_; }

  private:
    void
    close(unsigned kind, std::uint64_t t0) const noexcept
    {
        const std::uint64_t t1 = tscNow();
        ++calls_[kind];
        tsc_[kind] += t1 - t0;
        if (spans_.size() < kSpanCap)
            spans_.push_back({t0, t1, kind});
    }

    pfm::CoreHooks& inner_;
    // nextEventCycle() is const in the interface but still records.
    mutable std::uint64_t calls_[kNumHooks] = {};
    mutable std::uint64_t tsc_[kNumHooks] = {};
    mutable std::vector<HookSpan> spans_;
};

/** What the core retired, as the isolated replays consume it. */
struct Streams {
    struct MemRef {
        Addr addr;
        Cycle now;
        bool store;
    };
    std::vector<Addr> pcs;                         ///< every retired PC
    std::vector<std::pair<Addr, bool>> branches;   ///< conditional: pc, taken
    std::vector<MemRef> mem;                       ///< loads and stores
};

/** Capturing decorator: records each instruction the core commits. */
class CaptureHooks final : public pfm::CoreHooks
{
  public:
    CaptureHooks(pfm::CoreHooks& inner, Streams& out)
        : inner_(inner), out_(out)
    {
    }

    pfm::FetchOverride
    fetchOverride(const DynInst& d, bool replayed, Cycle now) override
    {
        return inner_.fetchOverride(d, replayed, now);
    }

    pfm::RetireDecision
    onRetire(const DynInst& d, Cycle now) override
    {
        pfm::RetireDecision r = inner_.onRetire(d, now);
        if (r.allow) {
            out_.pcs.push_back(d.pc);
            if (d.isCondBranch())
                out_.branches.emplace_back(d.pc, d.taken);
            if (d.isLoad() || d.isStore())
                out_.mem.push_back({d.mem_addr, now, d.isStore()});
        }
        return r;
    }

    Cycle
    onSquash(Cycle now, pfm::SeqNum last_kept, const DynInst* branch) override
    {
        return inner_.onSquash(now, last_kept, branch);
    }

    void
    onCycle(Cycle now, unsigned free_ls_slots,
            const pfm::IssueUsage& usage) override
    {
        inner_.onCycle(now, free_ls_slots, usage);
    }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return inner_.nextEventCycle(now);
    }

    void
    onFastForward(Cycle from, Cycle to) override
    {
        inner_.onFastForward(from, to);
    }

  private:
    pfm::CoreHooks& inner_;
    Streams& out_;
};

/** Named host-time spans of the probe phases, relative to its start. */
class PhaseLog
{
  public:
    explicit PhaseLog(Clock::time_point origin) : origin_(origin) {}

    /** Run @p f as span @p name; returns its duration in seconds. */
    template <typename F>
    double
    span(const char* name, F&& f)
    {
        const Clock::time_point a = Clock::now();
        f();
        const Clock::time_point b = Clock::now();
        spans_.push_back({name, secondsBetween(origin_, a),
                          secondsBetween(origin_, b)});
        return secondsBetween(a, b);
    }

    struct Span {
        const char* name;
        double start_s;
        double end_s;
    };
    const std::vector<Span>& spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Every stat group the simulator owns, dumped in a fixed order. */
std::string
statsDump(Simulator& sim)
{
    std::ostringstream os;
    sim.core().stats().dump(os);
    pfm::Hierarchy& m = sim.memory();
    m.stats().dump(os);
    m.l1i().stats().dump(os);
    m.l1d().stats().dump(os);
    m.l2().stats().dump(os);
    m.l3().stats().dump(os);
    m.dram().stats().dump(os);
    if (sim.pfm())
        sim.pfm()->stats().dump(os);
    return os.str();
}

std::uint64_t
bytesUnder(const std::filesystem::path& dir)
{
    std::uint64_t n = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

/** Best of kReplayReps timings of @p f (each returns host ns). */
template <typename F>
double
bestNs(F&& f)
{
    std::vector<double> ns;
    for (int i = 0; i < kReplayReps; ++i)
        ns.push_back(f());
    return best(ns);
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return 1e9 * secondsBetween(a, b);
}

/** One traced run() worth keeping for the hook split and the span file. */
struct TracedRun {
    double run_s = 0;
    double ns_per_tsc = 0;
    std::uint64_t calls[kNumHooks] = {};
    std::uint64_t tsc[kNumHooks] = {};
    std::uint64_t tsc_start = 0;
    std::vector<HookSpan> spans;
};

void
writeSpans(const std::string& path, const PhaseLog& phases,
           const TracedRun& run)
{
    std::ofstream os(path);
    os << "# kind\tname\tstart_ns\tend_ns (phase: from probe start; "
          "hook: from the start of the traced run())\n";
    for (const PhaseLog::Span& s : phases.spans())
        os << "phase\t" << s.name << '\t'
           << static_cast<std::uint64_t>(1e9 * s.start_s) << '\t'
           << static_cast<std::uint64_t>(1e9 * s.end_s) << '\n';
    for (unsigned h = 0; h < kNumHooks; ++h)
        os << "hook_total\t" << kHookNames[h] << "\tcalls=" << run.calls[h]
           << "\tns=" << static_cast<std::uint64_t>(
                             static_cast<double>(run.tsc[h]) * run.ns_per_tsc)
           << '\n';
    for (const HookSpan& s : run.spans)
        os << "hook\t" << kHookNames[s.kind] << '\t'
           << static_cast<std::uint64_t>(
                  static_cast<double>(s.start - run.tsc_start) *
                  run.ns_per_tsc)
           << '\t'
           << static_cast<std::uint64_t>(
                  static_cast<double>(s.end - run.tsc_start) *
                  run.ns_per_tsc)
           << '\n';
}

} // namespace

std::string
simFingerprint(Simulator& sim, const SimResult& r)
{
    std::ostringstream os;
    os << std::hexfloat << "ipc=" << r.ipc << " mpki=" << r.mpki
       << " cycles=" << r.cycles << " instructions=" << r.instructions
       << " rst=" << r.rst_hit_pct << " fst=" << r.fst_hit_pct
       << " finished=" << r.finished << '\n';
    for (const pfm::PortStatsSnapshot& p : r.ports)
        os << "port " << p.name << ' ' << p.pushes << ' ' << p.occ_avg << ' '
           << p.occ_max << ' ' << p.full_stalls << ' ' << p.pops << ' '
           << p.qlat_avg << ' ' << p.qlat_max << '\n';
    os << statsDump(sim);
    return os.str();
}

void
probeLayers(const SimOptions& opt, double seconds, const std::string& tag,
            LayerTotals& t, Report& report)
{
    // A deferred component attaches inside run() and would replace the
    // decorator, so the probe runs the component from construction.
    if (opt.defer_component)
        throw std::invalid_argument("probeLayers needs a non-deferred config");

    const Clock::time_point origin = Clock::now();
    PhaseLog phases(origin);

    for (int i = 0; i < kPhaseSamples; ++i) {
        t.build_ms.push_back(1e3 * phases.span("workloads.build", [&] {
            pfm::Workload w = pfm::makeWorkload(opt.workload);
        }));
        std::unique_ptr<Simulator> sim;
        t.construct_ms.push_back(1e3 * phases.span("sim.construct", [&] {
            sim = std::make_unique<Simulator>(opt);
        }));
    }

    // Untraced and traced runs alternate, so host drift hits both alike;
    // each pair runs on the next CPU (see allowedCpus).
    const std::vector<int> cpus = allowedCpus();
    std::string reference;
    std::vector<double> untraced_s;
    std::vector<TracedRun> traced;
    do {
        if (!cpus.empty())
            pinThread(cpus[traced.size() % cpus.size()]);
        {
            Simulator sim(opt);
            SimResult r;
            untraced_s.push_back(
                phases.span("run.untraced", [&] { r = sim.run(); }));
            const std::string fp = simFingerprint(sim, r);
            if (reference.empty())
                reference = fp;
            else
                report.op(fp == reference,
                          tag + ": untraced reruns differ");
        }
        {
            Simulator sim(opt);
            TimingHooks hooks(innerHooks(sim));
            sim.core().setHooks(&hooks);
            SimResult r;
            TracedRun tr;
            tr.tsc_start = tscNow();
            tr.run_s = phases.span("run.traced", [&] { r = sim.run(); });
            const std::uint64_t tsc_end = tscNow();
            sim.core().setHooks(&innerHooks(sim));
            tr.ns_per_tsc = 1e9 * tr.run_s /
                            static_cast<double>(tsc_end - tr.tsc_start);
            for (unsigned h = 0; h < kNumHooks; ++h) {
                tr.calls[h] = hooks.calls(h);
                tr.tsc[h] = hooks.tsc(h);
            }
            if (traced.empty())
                tr.spans = hooks.spans();
            traced.push_back(std::move(tr));
            report.op(simFingerprint(sim, r) == reference,
                      tag + ": traced run differs from the untraced run");
            if (traced.size() == 1) {
                t.instructions += r.instructions;
                t.cycles += r.cycles;
            }
        }
    } while (secondsBetween(origin, Clock::now()) < seconds &&
             static_cast<int>(traced.size()) < kMaxRunPairs);
    pinProcess(cpus);

    // The best traced run supplies the hook split, so hook + residual time
    // adds up to one measured run(); it is compared with the best
    // untraced run (see best() on host noise).
    const TracedRun& fastest = *std::min_element(
        traced.begin(), traced.end(),
        [](const TracedRun& a, const TracedRun& b) {
            return a.run_s < b.run_s;
        });
    t.untraced_run_s += best(untraced_s);
    t.traced_run_s += fastest.run_s;
    for (unsigned h = 0; h < kNumHooks; ++h) {
        t.hook_calls[h] += fastest.calls[h];
        t.hook_ns += static_cast<double>(fastest.tsc[h]) * fastest.ns_per_tsc;
    }
    t.ticked_cycles += fastest.calls[kOnCycle];

    // Capture run: the streams the isolated replays consume.
    Streams streams;
    {
        Simulator sim(opt);
        CaptureHooks cap(innerHooks(sim), streams);
        sim.core().setHooks(&cap);
        SimResult r;
        phases.span("run.capture", [&] { r = sim.run(); });
        sim.core().setHooks(&innerHooks(sim));
        report.op(simFingerprint(sim, r) == reference,
                  tag + ": capture run differs from the untraced run");
        report.op(streams.pcs.size() == r.instructions,
                  tag + ": captured stream length != retired instructions");

        const pfm::StatGroup& core = sim.core().stats();
        t.measured_instructions += core.get("retired");
        t.branch_mispredicts += core.get("branch_mispredicts");
        t.dispatch_stall_rob += core.get("dispatch_stall_rob");
        if (sim.pfm()) {
            t.prefetches_issued += sim.pfm()->stats().get("agent_prefetches");
            t.custom_predictions_used +=
                sim.pfm()->stats().get("custom_predictions_used");
        }
        t.l1d_misses += sim.memory().l1d().stats().get("misses");
        t.l2_mshr_stalls += sim.memory().l2().stats().get("mshr_stalls");
        t.dram_accesses += sim.memory().dram().stats().get("accesses");
    }

    // isa: a fresh engine re-executes the captured stream.
    bool isa_ok = true;
    t.isa_ns += bestNs([&] {
        pfm::Workload w = pfm::makeWorkload(opt.workload);
        pfm::FunctionalEngine eng(w.program, *w.mem);
        eng.reset(w.entry);
        for (const auto& [reg, val] : w.init_regs)
            eng.setReg(reg, val);
        std::vector<Addr> pcs(streams.pcs.size());
        const Clock::time_point a = Clock::now();
        for (Addr& pc : pcs)
            pc = eng.step().pc;
        const Clock::time_point b = Clock::now();
        isa_ok = isa_ok && pcs == streams.pcs;
        return nsBetween(a, b);
    });
    t.isa_calls += streams.pcs.size();
    report.op(isa_ok, tag + ": engine replay diverged from the retired stream");

    // branch: a fresh TAGE-SC-L predicts and trains on the branch stream.
    std::uint64_t sink = 0;
    t.branch_ns += bestNs([&] {
        pfm::TageSclPredictor bp;
        const Clock::time_point a = Clock::now();
        for (const auto& [pc, taken] : streams.branches)
            sink += bp.predictAndTrain(pc, taken) != taken;
        const Clock::time_point b = Clock::now();
        return nsBetween(a, b);
    });
    t.branch_calls += streams.branches.size();

    // memory: a fresh hierarchy serves the load/store address stream.
    t.memory_ns += bestNs([&] {
        pfm::Hierarchy mem(opt.mem);
        const Clock::time_point a = Clock::now();
        for (const Streams::MemRef& m : streams.mem)
            sink += mem.access(m.addr, m.now,
                               m.store ? pfm::MemAccessType::kStore
                                       : pfm::MemAccessType::kLoad)
                        .done;
        const Clock::time_point b = Clock::now();
        return nsBetween(a, b);
    });
    t.memory_calls += streams.mem.size();
    replay_sink = sink;  // keeps the replay loops from being optimized away

    // sim checkpoint: the bare-core warm image, saved and restored the way
    // the daemon's warm cache does it (content-addressed store).
    SimOptions bare = opt;
    bare.component = "none";
    bare.max_instructions = 0;
    bare.ckpt_store = "store";
    Simulator warm(bare);
    warm.run();
    const std::string warm_stats = statsDump(warm);
    for (int i = 0; i < kCkptReps; ++i) {
        const std::filesystem::path dir =
            std::filesystem::path(kWorkDir) /
            ("ckpt-" + tag + "-" + std::to_string(i));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const std::string path = (dir / "warm.ckpt").string();
        t.ckpt_save_ms.push_back(1e3 * phases.span("sim.ckpt_save", [&] {
            warm.saveCheckpoint(path);
        }));
        if (i == 0) {
            t.ckpt_bytes += bytesUnder(dir);
            ++t.ckpt_images;
        }
        Simulator cold(bare);
        t.ckpt_load_ms.push_back(1e3 * phases.span("sim.ckpt_load", [&] {
            cold.loadCheckpoint(path);
        }));
        report.op(statsDump(cold) == warm_stats,
                  tag + ": restored checkpoint differs from the saved state");
        std::filesystem::remove_all(dir);
    }

    writeSpans(std::string(kWorkDir) + "/spans-" + tag + ".tsv", phases,
               traced.front());
}

void
reportLayers(const LayerTotals& t, const DaemonLayer* daemon, Report& report)
{
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double instr = static_cast<double>(t.instructions);
    const double measured = static_cast<double>(t.measured_instructions);
    const double run_ns = 1e9 * t.traced_run_s;

    report.add("workloads.build_ms", median(t.build_ms), "ms",
               "makeWorkload");
    report.add("sim.construct_ms", median(t.construct_ms), "ms",
               "Simulator construction");
    report.add("sim.traced_run_ns_per_instr", per(run_ns, instr), "ns",
               "= pfm.hook_ns_per_instr + core.residual_ns_per_instr");
    report.add("pfm.hook_ns_per_instr", per(t.hook_ns, instr), "ns",
               "self time inside CoreHooks calls");
    report.add("core.residual_ns_per_instr", per(run_ns - t.hook_ns, instr),
               "ns", "traced run() minus hook time");
    report.add("perfbench.trace_overhead_pct",
               100.0 * per(t.traced_run_s - t.untraced_run_s,
                           t.untraced_run_s),
               "%", "traced vs untraced run()");
    report.add("pfm.fetch_override_calls",
               static_cast<double>(t.hook_calls[kFetchOverride]), "count");
    report.add("pfm.on_retire_calls",
               static_cast<double>(t.hook_calls[kOnRetire]), "count");
    report.add("pfm.on_cycle_calls",
               static_cast<double>(t.hook_calls[kOnCycle]), "count");
    report.add("pfm.on_squash_calls",
               static_cast<double>(t.hook_calls[kOnSquash]), "count");
    report.add("sim.ticked_cycle_ratio",
               per(static_cast<double>(t.ticked_cycles),
                   static_cast<double>(t.cycles)),
               "ratio", "ticked / simulated cycles");
    report.add("isa.step_ns", per(t.isa_ns, static_cast<double>(t.isa_calls)),
               "ns", "FunctionalEngine::step replay");
    report.add("branch.predict_train_ns",
               per(t.branch_ns, static_cast<double>(t.branch_calls)), "ns",
               "TageSclPredictor::predictAndTrain replay");
    report.add("memory.access_ns",
               per(t.memory_ns, static_cast<double>(t.memory_calls)), "ns",
               "Hierarchy::access replay");
    report.add("sim.ckpt_save_ms", best(t.ckpt_save_ms), "ms",
               "store-mode save of the bare warm image");
    report.add("sim.ckpt_load_ms", best(t.ckpt_load_ms), "ms",
               "restore into a fresh Simulator");
    report.add("sim.ckpt_bytes",
               per(static_cast<double>(t.ckpt_bytes), t.ckpt_images),
               "bytes", "manifest + blobs per image");
    report.add("core.branch_mispredicts_pki",
               per(1e3 * static_cast<double>(t.branch_mispredicts), measured),
               "count/kinstr", "window: measurement");
    report.add("core.dispatch_stall_rob_pki",
               per(1e3 * static_cast<double>(t.dispatch_stall_rob), measured),
               "count/kinstr", "window: measurement");
    report.add("memory.l1d_misses_pki",
               per(1e3 * static_cast<double>(t.l1d_misses), instr),
               "count/kinstr", "window: warmup + measurement (not reset)");
    report.add("memory.l2_mshr_stalls_pki",
               per(1e3 * static_cast<double>(t.l2_mshr_stalls), instr),
               "count/kinstr", "window: warmup + measurement (not reset)");
    report.add("memory.dram_accesses_pki",
               per(1e3 * static_cast<double>(t.dram_accesses), instr),
               "count/kinstr", "window: warmup + measurement (not reset)");
    report.add("pfm.prefetches_issued_pki",
               per(1e3 * static_cast<double>(t.prefetches_issued), measured),
               "count/kinstr", "window: measurement");
    report.add("pfm.custom_predictions_used_pki",
               per(1e3 * static_cast<double>(t.custom_predictions_used),
                   measured),
               "count/kinstr", "window: measurement");
    const char* na = "n/a: no daemon on this workload";
    report.add("daemon.cache_hit_ratio", daemon ? daemon->cache_hit_ratio : 0,
               "ratio", daemon ? "hits / acquires" : na);
    report.add("farm_s", daemon ? daemon->farm_s : 0, "s",
               daemon ? "median pass of the fig17 sweep" : na);
    report.add("leg_p50_ms", daemon ? daemon->leg_p50_ms : 0, "ms",
               daemon ? "daemon leg latency, client side" : na);
    char note[64] = "";
    if (daemon)
        std::snprintf(note, sizeof(note), "p%.1f of %zu legs",
                      daemon->leg_tail.pct, daemon->leg_tail.samples);
    report.add("leg_tail_ms", daemon ? daemon->leg_tail.value : 0, "ms",
               daemon ? note : na);
}

} // namespace perfbench
