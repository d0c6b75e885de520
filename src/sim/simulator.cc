#include "sim/simulator.h"

#include <cstring>
#include <iostream>

#include "common/log.h"
#include "sim/checkpoint.h"
#include "components/astar_alt_predictor.h"
#include "components/astar_predictor.h"
#include "components/bfs_component.h"
#include "components/bwaves_prefetcher.h"
#include "components/lbm_prefetcher.h"
#include "components/leslie_prefetcher.h"
#include "components/libquantum_prefetcher.h"
#include "components/milc_prefetcher.h"
#include "components/pmp_prefetcher.h"
#include "components/slipstream.h"
#include "pfm/prefetch_stats.h"
#include "trace_fe/trace_format.h"
#include "workloads/registry.h"

namespace pfm {

namespace {

/**
 * FNV-1a over every configuration knob that shapes the machine state a
 * checkpoint captures. Two simulators with equal fingerprints restore
 * each other's checkpoints bit-exactly; anything else is fatal at load.
 * PFM knobs enter only when a component is attached at save time, so a
 * bare-core warmup checkpoint stays shareable across deferred-component
 * measurement legs that differ only in PFM parameters.
 */
class ConfigHash
{
  public:
    void
    bytes(const void* p, std::size_t n)
    {
        const unsigned char* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }

    template <typename T>
    void
    num(T v)
    {
        std::uint64_t u = static_cast<std::uint64_t>(v);
        bytes(&u, sizeof(u));
    }

    void
    str(const std::string& s)
    {
        num(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

} // namespace

std::uint64_t
configFingerprint(const SimOptions& o, bool with_pfm)
{
    ConfigHash h;
    h.str(o.workload);
    // A trace workload's identity is its *content*, not its path: fold in
    // the file id so checkpoints (and the daemon's warm cache) keyed
    // against one recording die cleanly — by fingerprint mismatch or
    // cache miss — when the file is re-recorded.
    if (trace::isTraceWorkload(o.workload))
        h.num(trace::traceFileId(trace::traceWorkloadPath(o.workload)));
    h.num(o.warmup_instructions);

    const CoreParams& c = o.core;
    h.num(c.fetch_width);
    h.num(c.retire_width);
    h.num(c.issue_width);
    h.num(c.rob_size);
    h.num(c.iq_size);
    h.num(c.ldq_size);
    h.num(c.stq_size);
    h.num(c.prf_size);
    h.num(c.alu_lanes);
    h.num(c.ls_lanes);
    h.num(c.fp_lanes);
    h.num(c.frontend_depth);
    h.num(c.redirect_penalty);
    h.num(c.write_buffer_size);
    h.num(c.lat_int_alu);
    h.num(c.lat_int_mul);
    h.num(c.lat_int_div);
    h.num(c.lat_fp_add);
    h.num(c.lat_fp_mul);
    h.num(c.lat_fp_div);
    h.num(c.lat_agen);
    h.num(static_cast<int>(c.bp_kind));
    h.num(c.model_btb);
    h.num(c.btb_fill_penalty);
    h.num(c.frontend_buffer);

    auto cache = [&h](const CacheParams& p) {
        h.str(p.name);
        h.num(p.size_bytes);
        h.num(p.assoc);
        h.num(p.latency);
        h.num(p.mshrs);
    };
    cache(o.mem.l1i);
    cache(o.mem.l1d);
    cache(o.mem.l2);
    cache(o.mem.l3);
    h.num(o.mem.dram.latency);
    h.num(o.mem.dram.issue_gap);
    h.num(o.mem.dram.max_outstanding);
    h.num(o.mem.l1d_next_n);
    h.num(o.mem.vldp_enabled);
    h.num(o.mem.perfect_dcache);
    h.num(o.mem.perfect_icache);

    if (with_pfm) {
        h.str(o.component);
        h.num(o.pfm.clk_div);
        h.num(o.pfm.width);
        h.num(o.pfm.delay);
        h.num(o.pfm.queue_size);
        h.num(static_cast<int>(o.pfm.port));
        h.num(o.pfm.mlb_entries);
        h.num(o.pfm.watchdog_cycles);
        h.num(o.pfm.non_stalling_fetch);
        h.num(o.pfm.context_switch_interval);
        h.num(o.pfm.reconfig_cycles);
        h.num(o.astar_index_queue);
        h.num(o.bfs_queue_entries);
    }
    return h.value();
}

Simulator::Simulator(const SimOptions& opt) : opt_(opt)
{
    if (trace::isTraceWorkload(opt_.workload)) {
        if (!opt_.record_trace.empty())
            pfm_fatal("--record-trace cannot re-record a trace replay "
                      "(the replay *is* the recording)");
        trace_ = std::make_unique<TraceSource>(
            trace::traceWorkloadPath(opt_.workload));
        // Copy the materialized workload so component factories and the
        // annotation accessors see exactly what a native run would; the
        // memory image is shared (shared_ptr), so the source's store
        // replay and the components' committed reads observe one image.
        workload_ = trace_->workload();
        source_ = trace_.get();
    } else {
        if (!opt_.record_trace.empty() &&
            (!opt_.checkpoint_save.empty() ||
             !opt_.checkpoint_load.empty())) {
            pfm_fatal("--record-trace is exclusive with "
                      "--checkpoint-save/--checkpoint-load (the "
                      "writer's stream position is not checkpointable "
                      "state)");
        }
        // A restore builds nothing: the checkpoint carries the workload
        // descriptor, and loadCheckpoint() maps the saved image into the
        // descriptor's empty memory.
        if (!opt_.checkpoint_load.empty())
            restore_ = openCheckpoint(opt_.checkpoint_load, /*built=*/false);
        else
            workload_ = makeWorkload(opt_.workload);
        engine_ = std::make_unique<FunctionalEngine>(workload_.program,
                                                     *workload_.mem);
        engine_->reset(workload_.entry);
        for (const auto& [reg, val] : workload_.init_regs)
            engine_->setReg(reg, val);
        source_ = engine_.get();
        if (!opt_.record_trace.empty()) {
            recorder_ = std::make_unique<TraceRecorder>(
                *engine_, opt_.record_trace, workload_);
            source_ = recorder_.get();
        }
    }

    mem_ = std::make_unique<Hierarchy>(opt_.mem);
    core_ = std::make_unique<Core>(opt_.core, *source_, *mem_);
    if (!opt_.trace_path.empty()) {
        tracer_ = std::make_unique<PipelineTracer>(opt_.trace_path,
                                                   opt_.trace_limit);
        core_->setTracer(tracer_.get());
    }
    // Deferred components attach at the warmup boundary (run()), so the
    // warmup phase — and any warmup checkpoint — is bare-core.
    if (!opt_.defer_component)
        attachComponent();
}

Simulator::~Simulator() = default;

void
Simulator::attachComponent()
{
    if (opt_.component == "none")
        return;

    pfm_ = std::make_unique<PfmSystem>(opt_.pfm, *mem_,
                                       source_->commitLog(),
                                       core_->laneUsage());

    // Dispatch on the *workload's* name, not the option string, so
    // component=auto resolves identically for "bfs-roads" and a
    // "trace:<path>" replay of it.
    const std::string& wl = workload_.name;
    if (opt_.component == "slipstream") {
        if (wl == "astar") {
            attachAstarSlipstream(*pfm_, workload_);
        } else if (wl.rfind("bfs", 0) == 0) {
            attachBfsSlipstream(*pfm_, workload_);
        } else {
            pfm_fatal("slipstream model exists only for astar/bfs");
        }
    } else if (opt_.component == "pmp") {
        // Workload-agnostic: PMP learns patterns from the demand stream,
        // so any workload with a roi_begin marker qualifies (all do).
        PmpPrefetcher::attach(*pfm_, workload_);
    } else if (opt_.component == "alt") {
        if (wl != "astar")
            pfm_fatal("the astar-alt microarchitecture exists only for astar");
        AstarAltPredictor::attach(*pfm_, workload_);
    } else if (opt_.component == "auto") {
        if (wl == "astar") {
            AstarPredictorOptions o;
            o.index_queue_entries = opt_.astar_index_queue;
            AstarPredictor::attach(*pfm_, workload_, o);
        } else if (wl.rfind("bfs", 0) == 0) {
            BfsComponentOptions o;
            o.queue_entries = opt_.bfs_queue_entries;
            BfsComponent::attach(*pfm_, workload_, o);
        } else if (wl == "libquantum") {
            attachLibquantumPrefetcher(*pfm_, workload_);
        } else if (wl == "bwaves") {
            attachBwavesPrefetcher(*pfm_, workload_);
        } else if (wl == "lbm") {
            attachLbmPrefetcher(*pfm_, workload_);
        } else if (wl == "milc") {
            attachMilcPrefetcher(*pfm_, workload_);
        } else if (wl == "leslie") {
            attachLesliePrefetcher(*pfm_, workload_);
        } else {
            pfm_fatal("no custom component registered for workload '%s'",
                      wl.c_str());
        }
    } else {
        pfm_fatal("unknown component option '%s'", opt_.component.c_str());
    }
    core_->setHooks(pfm_.get());
}

SimResult
Simulator::run()
{
    // Cooperative cancellation: cheap enough to leave in the loop (one
    // increment + mask per iteration); the std::function is only invoked
    // every 16k scheduler iterations, bounding a daemon leg's reaction
    // time to a client disconnect at a few milliseconds of simulation.
    std::uint64_t cancel_ticks = 0;
    auto cancelled = [this, &cancel_ticks]() {
        return opt_.cancel_poll && (++cancel_ticks & 0x3FFF) == 0 &&
               opt_.cancel_poll();
    };

    auto run_until = [this, &cancelled](std::uint64_t target) {
        std::uint64_t last_retired = core_->retired();
        // Deadlock detection counts scheduler iterations, not raw cycles:
        // each iteration is one ticked cycle (a fast-forward jump never
        // replaces a tick that could have made progress), so a legitimate
        // multi-thousand-cycle skip cannot trip the detector, while a true
        // deadlock — where fastForward() always returns 0 — trips after
        // exactly deadlock_cycles ticks, same as with fastfwd off.
        Cycle idle_ticks = 0;
        const bool ff = opt_.fastfwd;
        // Only attempt a skip after a few retirement-free ticks: ticking a
        // quiescent cycle and skipping it are interchangeable, so gating
        // is free on correctness, and it keeps retire-bound phases (where
        // the quiescence scan would run every cycle to skip 1-3 cycles)
        // at zero overhead while multi-thousand-cycle stalls still
        // collapse after a 4-tick on-ramp. A *vetoed* scan backs off
        // exponentially — a busy-but-not-retiring stretch (RF round
        // trips, write-buffer drains) costs O(log W) scans instead of one
        // per cycle — and a successful skip or a retirement re-arms the
        // threshold.
        constexpr Cycle kFfIdleThreshold = 4;
        Cycle next_ff_at = kFfIdleThreshold;
        while (!core_->done() && core_->retired() < target) {
            if (cancelled())
                throw SimCancelled{};
            // Skip before ticking so the loop exits at the same cycle
            // whether or not the last instruction was followed by a
            // quiescent gap (keeps warmup stats-reset boundaries, and so
            // every dumped stat, byte-identical with fastfwd off).
            if (ff && idle_ticks >= next_ff_at)
                next_ff_at = core_->fastForward() ? kFfIdleThreshold
                                                  : idle_ticks * 2;
            core_->tick();
            if (core_->retired() != last_retired) {
                last_retired = core_->retired();
                idle_ticks = 0;
                next_ff_at = kFfIdleThreshold;
            } else if (++idle_ticks > opt_.deadlock_cycles) {
                std::cerr << "--- deadlock diagnostics ---\n";
                core_->stats().dump(std::cerr);
                if (pfm_) {
                    pfm_->stats().dump(std::cerr);
                    pfm_->dumpDebug(std::cerr);
                }
                pfm_panic("deadlock: no retirement for %llu cycles "
                          "(workload %s, pc frontier %llu retired)",
                          (unsigned long long)opt_.deadlock_cycles,
                          opt_.workload.c_str(),
                          (unsigned long long)core_->retired());
            }
        }
    };

    if (!opt_.checkpoint_load.empty()) {
        // The checkpoint was written right after the warmup stats resets,
        // so restoring it *is* the warmed-up, reset state.
        loadCheckpoint(opt_.checkpoint_load);
    } else {
        run_until(opt_.warmup_instructions);
        core_->resetStats();
        mem_->stats().resetAll();
        if (pfm_)
            pfm_->stats().resetAll();
    }

    if (!opt_.checkpoint_save.empty())
        saveCheckpoint(opt_.checkpoint_save);

    if (opt_.defer_component && !pfm_) {
        // The warmup boundary is the deferred attach point; it happens
        // after the (optional) save so warmup checkpoints stay bare-core,
        // and identically on the load path so a sharded run matches the
        // uninterrupted deferred run cycle for cycle.
        attachComponent();
        if (pfm_) {
            CustomComponent* comp = pfm_->component();
            if (comp && !comp->supportsCheckpoint()) {
                pfm_fatal("component '%s' cannot be attached at the warmup "
                          "boundary: it relies on configuration snooped "
                          "during warmup (no checkpoint support)",
                          comp->name().c_str());
            }
            pfm_->beginRoiAtBoundary();
        }
    }

    run_until(opt_.warmup_instructions + opt_.max_instructions);

    // Seal the recording (end block + final header + rename into place).
    // Everything the engine stepped is in the trace, including committed
    // instructions still in flight in the core — replay terminates on
    // end-of-stream, so the replayed run retires exactly this stream.
    if (recorder_)
        recorder_->finish();

    SimResult r;
    r.ipc = core_->ipc();
    r.mpki = core_->mpki();
    r.cycles = core_->cycle();
    r.instructions = core_->retired();
    r.finished = core_->done();
    if (pfm_) {
        r.rst_hit_pct = pfm_->rstHitPct();
        r.fst_hit_pct = pfm_->fstHitPct();
        r.ports = pfm_->portSnapshots();
        const PrefetchAccounting* acct =
            pfm_->component() ? pfm_->component()->prefetchAccounting()
                              : nullptr;
        if (opt_.report_prefetch_stats && acct) {
            r.has_pf = true;
            r.pf_issued = acct->issued();
            r.pf_useful = acct->useful();
            r.pf_useless = acct->useless();
            r.pf_late = acct->late();
            r.pf_inflight = acct->inflight();
            // Coverage: of the demand traffic that needed an off-chip-ish
            // trip (L3 or DRAM) plus the misses the prefetcher absorbed,
            // how much did it absorb?
            const std::uint64_t missed = mem_->stats().get("served_l3") +
                                         mem_->stats().get("served_dram");
            if (r.pf_useful + missed > 0)
                r.pf_coverage_pct =
                    100.0 * static_cast<double>(r.pf_useful) /
                    static_cast<double>(r.pf_useful + missed);
            if (r.pf_issued > 0)
                r.pf_accuracy_pct = 100.0 *
                                    static_cast<double>(r.pf_useful) /
                                    static_cast<double>(r.pf_issued);
        }
    }
    return r;
}

void
Simulator::writeState(CkptWriter& w) const
{
    w.beginSection("engine");
    source_->saveState(w);
    w.endSection();
    w.beginSection("memory");
    mem_->saveState(w);
    w.endSection();
    w.beginSection("core");
    core_->saveState(w);
    w.endSection();
    if (pfm_) {
        w.beginSection("pfm");
        pfm_->saveState(w);
        w.endSection();
    }
}

namespace {

/**
 * A component that does not opt into checkpointing keeps private state
 * (often configuration snooped during warmup) that no section carries;
 * saving or restoring through it would silently drop that state.
 */
void
requireCheckpointable(PfmSystem* pfm)
{
    const CustomComponent* comp = pfm ? pfm->component() : nullptr;
    if (comp && !comp->supportsCheckpoint()) {
        pfm_fatal("component '%s' does not support checkpointing",
                  comp->name().c_str());
    }
}

} // namespace

void
Simulator::saveCheckpoint(const std::string& path)
{
    if (recorder_) {
        pfm_fatal("cannot save a checkpoint while recording a trace "
                  "(--record-trace and --checkpoint-save are exclusive)");
    }
    requireCheckpointable(pfm_.get());
    CkptWriter w(path);
    w.setStore(opt_.ckpt_store);
    CkptHeader h;
    h.version = kCkptFormatVersion;
    // sourceFingerprint() lets an instruction source fold extra identity
    // into the config fingerprint (a TraceSource contributes its file
    // id; the functional engine contributes nothing).
    h.fingerprint = configFingerprint(opt_, pfm_ != nullptr) ^
                    source_->sourceFingerprint();
    h.workload = opt_.workload;
    h.component = pfm_ ? opt_.component : "none";
    h.retired = core_->retired();
    w.writeHeader(h);
    // The static descriptor leads: a restore builds its workload from it
    // before any machine state is read. It is input, not state, so
    // writeState() (and with it machineDigest()) leaves it out.
    w.beginSection("workload");
    const std::vector<std::uint8_t> desc =
        trace::encodeWorkloadDescriptor(workload_);
    w.putBytes(desc.data(), desc.size());
    w.endSection();
    writeState(w);
    w.finish();
}

std::vector<CkptSectionDigest>
Simulator::machineDigest() const
{
    CkptWriter w("");
    w.setDigestOnly();
    w.writeHeader(CkptHeader{});
    writeState(w);
    return w.digests();
}

Simulator::OpenCheckpoint
Simulator::openCheckpoint(const std::string& path, bool built)
{
    OpenCheckpoint ck{CkptReader(path), {}};
    CkptReader& r = ck.reader;
    const CkptHeader& h = ck.header = r.readHeader();
    if (h.workload != opt_.workload) {
        pfm_fatal("checkpoint %s was saved for workload '%s', not '%s'",
                  path.c_str(), h.workload.c_str(), opt_.workload.c_str());
    }
    r.beginSection("workload");
    const std::size_t n = r.remaining();
    const std::uint8_t* desc = r.view(n);
    if (built) {
        // Equal bytes are a valid descriptor by construction, so there
        // is nothing to decode.
        const std::vector<std::uint8_t> want =
            trace::encodeWorkloadDescriptor(workload_);
        if (n != want.size() || std::memcmp(desc, want.data(), n) != 0)
            r.fail("descriptor differs from workload '" + workload_.name +
                   "' as this simulator built it");
    } else {
        workload_ = trace::decodeWorkloadDescriptor(
            desc, n, [&r](const std::string& what) { r.fail(what); });
        if (workload_.name != h.workload)
            r.fail("descriptor names workload '" + workload_.name +
                   "' but the header names '" + h.workload + "'");
    }
    r.endSection();
    return ck;
}

void
Simulator::loadCheckpoint(const std::string& path)
{
    // The constructor opened opt_.checkpoint_load to take its workload
    // from it; any other checkpoint opens here, and its descriptor must
    // match the workload this simulator already holds.
    OpenCheckpoint ck = restore_ && restore_->reader.path() == path
                            ? std::move(*restore_)
                            : openCheckpoint(path, /*built=*/true);
    restore_.reset();
    CkptReader& r = ck.reader;
    const CkptHeader& h = ck.header;
    const bool saved_pfm = h.component != "none";
    if (saved_pfm != (pfm_ != nullptr)) {
        pfm_fatal("checkpoint %s %s a PFM component but this simulator %s "
                  "one (use --defer-component to load a bare-core warmup "
                  "checkpoint into a component run)",
                  path.c_str(), saved_pfm ? "carries" : "lacks",
                  pfm_ ? "attached" : "did not attach");
    }
    if (saved_pfm && h.component != opt_.component) {
        pfm_fatal("checkpoint %s component '%s' != --component=%s",
                  path.c_str(), h.component.c_str(), opt_.component.c_str());
    }
    const std::uint64_t want = configFingerprint(opt_, saved_pfm) ^
                               source_->sourceFingerprint();
    if (h.fingerprint != want) {
        pfm_fatal("checkpoint %s config fingerprint %016llx != this "
                  "simulator's %016llx (core/memory/pfm parameters or "
                  "warmup length differ)",
                  path.c_str(), (unsigned long long)h.fingerprint,
                  (unsigned long long)want);
    }

    r.beginSection("engine");
    source_->loadState(r);
    r.endSection();
    r.beginSection("memory");
    mem_->loadState(r);
    r.endSection();
    r.beginSection("core");
    core_->loadState(r);
    r.endSection();
    if (pfm_) {
        requireCheckpointable(pfm_.get());
        r.beginSection("pfm");
        pfm_->loadState(r);
        r.endSection();
    }
    if (!r.atEnd()) {
        pfm_fatal("checkpoint %s has trailing bytes after the last section",
                  path.c_str());
    }
}

SimResult
runSim(const SimOptions& opt)
{
    Simulator sim(opt);
    return sim.run();
}

double
speedupPct(const SimResult& base, const SimResult& with)
{
    if (base.ipc <= 0)
        return 0.0;
    return (with.ipc / base.ipc - 1.0) * 100.0;
}

} // namespace pfm
