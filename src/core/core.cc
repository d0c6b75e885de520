#include "core/core.h"

#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdlib>

#include "branch/bimodal.h"
#include "branch/tage_scl.h"
#include "common/log.h"
#include "sim/trace.h"

namespace pfm {

namespace {

/** Oracle predictor used for perfBP runs; handled specially in fetch. */
class NullPredictor : public BranchPredictor
{
  public:
    bool predict(Addr) override { return false; }
    void update(Addr, bool) override {}
    void reset() override {}
};

} // namespace

Core::Core(const CoreParams& params, InstSource& engine, Hierarchy& memory)
    : params_(params),
      engine_(engine),
      mem_(memory),
      store_sets_(),
      rename_(params.prf_size),
      stats_("core."),
      ctr_cycles_(stats_.counter("cycles")),
      ctr_fetched_(stats_.counter("fetched")),
      ctr_dispatched_(stats_.counter("dispatched")),
      ctr_issued_(stats_.counter("issued")),
      ctr_retired_(stats_.counter("retired")),
      ctr_cond_fetched_(stats_.counter("cond_branches_fetched")),
      ctr_fetch_stall_pfm_(stats_.counter("fetch_stall_pfm")),
      ctr_btb_misses_(stats_.counter("btb_misses")),
      ctr_ras_mispredicts_(stats_.counter("ras_mispredicts")),
      ctr_indirect_mispredicts_(stats_.counter("indirect_mispredicts")),
      ctr_dispatch_stall_rob_(stats_.counter("dispatch_stall_rob")),
      ctr_dispatch_stall_iq_(stats_.counter("dispatch_stall_iq")),
      ctr_dispatch_stall_ldq_(stats_.counter("dispatch_stall_ldq")),
      ctr_dispatch_stall_stq_(stats_.counter("dispatch_stall_stq")),
      ctr_dispatch_stall_prf_(stats_.counter("dispatch_stall_prf")),
      ctr_load_waits_storeset_(stats_.counter("load_waits_storeset")),
      ctr_stl_forwards_(stats_.counter("stl_forwards")),
      ctr_stl_partial_(stats_.counter("stl_partial")),
      ctr_load_l1_misses_(stats_.counter("load_l1_misses")),
      ctr_retire_stall_wb_(stats_.counter("retire_stall_wb")),
      ctr_retire_stall_pfm_(stats_.counter("retire_stall_pfm")),
      ctr_cond_retired_(stats_.counter("cond_branches_retired")),
      ctr_branch_mispredicts_(stats_.counter("branch_mispredicts")),
      ctr_custom_mispredicts_(stats_.counter("custom_mispredicts")),
      ctr_target_mispredicts_(stats_.counter("target_mispredicts")),
      ctr_mispredict_squashes_(stats_.counter("mispredict_squashes")),
      ctr_stores_drained_(stats_.counter("stores_drained")),
      dist_load_latency_(stats_.distribution("load_latency")),
      pf_trace_enabled_(std::getenv("PFM_PF_TRACE") != nullptr)
{
    ldq_.setCapacity(params_.ldq_size, "LDQ");
    stq_.setCapacity(params_.stq_size, "STQ");

    // Slab capacity: the live window [head_seq_, engine_next_) is at most
    // ROB + frontend pipe + the staging slot; the engine only produces a
    // new record once replay is drained and the frontend has room.
    SeqNum cap = 1;
    while (cap < static_cast<SeqNum>(params_.rob_size) +
                     params_.frontend_buffer + 2)
        cap <<= 1;
    hot_slab_.resize(cap);
    cold_slab_.resize(cap);
    slab_mask_ = cap - 1;
    wake_head_.assign(cap, kNoSeq);
    wake_next_.assign(cap, {kNoSeq, kNoSeq});
    ready_.assign(std::max<SeqNum>(cap / 64, 1), 0);
    ready_span_ = std::min<SeqNum>(cap, 64);

    switch (params_.bp_kind) {
      case BpKind::kTageScl:
        bp_ = std::make_unique<TageSclPredictor>();
        break;
      case BpKind::kBimodal:
        bp_ = std::make_unique<BimodalPredictor>();
        break;
      case BpKind::kPerfect:
        bp_ = std::make_unique<NullPredictor>();
        break;
    }
}

bool
Core::inWindow(SeqNum seq) const
{
    return seq >= head_seq_ && seq < dispatch_end_;
}

void
Core::assertInWindow(SeqNum seq) const
{
    pfm_assert(inWindow(seq), "seq %llu not in ROB window",
               (unsigned long long)seq);
}

/**
 * A source is available once its producer is kDone (its completion event
 * has been processed) or out of the ROB window: kNoSeq (architectural),
 * already retired, or a stale reference.
 */
bool
Core::sourceDone(SeqNum producer) const
{
    return !inWindow(producer) ||
           hotAt(producer).state == InstHot::kDone;
}

/**
 * A record just turned kWaiting: link it onto the wait list of each
 * producer that is not done yet (source 0 before source 1, so the
 * newest node is always the youngest consumer's last source), or mark
 * it ready when both sources are already available.
 */
void
Core::enterScheduler(SeqNum seq)
{
    const InstHot& h = hotAt(seq);
    const SeqNum srcs[2] = {h.src1, h.src2};
    bool ready = true;
    for (SeqNum k = 0; k < 2; ++k) {
        if (sourceDone(srcs[k]))
            continue;
        SeqNum& head = wake_head_[srcs[k] & slab_mask_];
        wake_next_[seq & slab_mask_][k] = head;
        head = seq * 2 + k;
        ready = false;
    }
    if (ready)
        setReady(seq);
}

/** @p producer just turned kDone: wake the consumers waiting on it. */
void
Core::wakeWaiters(SeqNum producer)
{
    SeqNum& head = wake_head_[producer & slab_mask_];
    SeqNum node = head;
    head = kNoSeq;
    // Each waiting record sits on a list at most once per source.
    unsigned budget = 2 * iq_count_;
    while (node != kNoSeq) {
        const SeqNum c = node >> 1;
        const InstHot& h = hotAt(c);
        pfm_assert(budget-- > 0 && h.state == InstHot::kWaiting,
                   "wait list of seq %llu is corrupt at seq %llu",
                   (unsigned long long)producer, (unsigned long long)c);
        if (sourceDone(h.src1) && sourceDone(h.src2))
            setReady(c);
        node = wake_next_[c & slab_mask_][node & 1];
    }
}

/**
 * Squash support: take waiting @p consumer off the lists of its
 * surviving producers that are not done yet. Called youngest consumer
 * first, so each of its nodes is the head of that list; source 1 goes
 * before source 0, which keeps src1 == src2 right.
 */
void
Core::unlinkWaiter(SeqNum consumer, SeqNum first_squashed)
{
    const InstHot& h = hotAt(consumer);
    const SeqNum srcs[2] = {h.src1, h.src2};
    for (SeqNum k = 2; k-- > 0;) {
        const SeqNum p = srcs[k];
        // A squashed producer's list is reset when it is re-dispatched.
        if (p >= first_squashed || sourceDone(p))
            continue;
        SeqNum& head = wake_head_[p & slab_mask_];
        pfm_assert(head == consumer * 2 + k,
                   "seq %llu is not the newest waiter of seq %llu",
                   (unsigned long long)consumer, (unsigned long long)p);
        head = wake_next_[consumer & slab_mask_][k];
    }
}

/** The IQ's contents: the kWaiting records of the ROB window, seq order. */
std::vector<SeqNum>
Core::waitingRecords() const
{
    std::vector<SeqNum> v;
    v.reserve(iq_count_);
    for (SeqNum s = head_seq_; s != dispatch_end_; ++s)
        if (hotAt(s).state == InstHot::kWaiting)
            v.push_back(s);
    return v;
}

bool
Core::storeSetBlocked(const InstHot& e, Cycle now) const
{
    // Memory dependence prediction: a load whose store set has an
    // unexecuted in-flight store waits for it (store-set barrier,
    // snapshotted at dispatch).
    if (!e.is_load || e.mem_barrier == kNoSeq || !inWindow(e.mem_barrier))
        return false;
    const InstHot& s = hotAt(e.mem_barrier);
    return s.state != InstHot::kFrontend &&
           (s.complete_cycle == kNoCycle || s.complete_cycle > now);
}

void
Core::tick() noexcept
{
    Cycle now = cycle_;
    processCompletions(now);
    retire(now);
    issue(now);
    dispatch(now);
    fetch(now);
    if (hooks_ && now >= hooks_->gate().wake)
        hooks_->onCycle(now, free_ls_slots_, usage_);
    drainWriteBuffer(now);
    ++cycle_;
    ++ctr_cycles_;
}

Cycle
Core::fastForward() noexcept
{
    const Cycle now = cycle_;
    if (halt_retired_)
        return 0;

    // --- Busy checks: anything that would act at `now` vetoes the skip.
    // All checks are pure reads, so they can run in any order; the O(1)
    // vetoes go first so busy phases (where some cheap veto almost always
    // fires) never pay for the ready-set walk.
    if (!write_buffer_.empty())
        return 0; // drains one store per cycle
    if (!completions_.empty() && completions_.top().first <= now)
        return 0; // a completion event fires this cycle

    Cycle horizon = kNoCycle;
    auto consider = [&horizon, now](Cycle c) {
        if (c > now && c < horizon)
            horizon = c;
    };

    // Retire: the head is eligible strictly after its completion cycle and
    // only once any retire stall has elapsed. A non-Done head becomes Done
    // via completions_, which is considered below.
    if (head_seq_ != dispatch_end_) {
        const InstHot& head = hotAt(head_seq_);
        if (head.state == InstHot::kDone) {
            if (now >= retire_stall_until_ && head.complete_cycle < now)
                return 0; // would retire (or at least consult the hooks)
            consider(retire_stall_until_);
            consider(head.complete_cycle + 1);
        }
    }

    // Dispatch: the frontend head either waits for its pipe-exit cycle, or
    // sits on a structural stall that only a retire/squash can clear (so
    // the same stall counter accrues every skipped cycle), or dispatches.
    Counter* dispatch_stall = nullptr;
    if (dispatch_end_ != fetch_end_) {
        const InstHot& f = hotAt(dispatch_end_);
        if (f.dispatch_ready > now) {
            consider(f.dispatch_ready);
        } else {
            const OpTraits& t = coldAt(dispatch_end_).d.inst->traits();
            const bool needs_iq = t.cls != OpClass::kNop;
            if (robSize() >= params_.rob_size)
                dispatch_stall = &ctr_dispatch_stall_rob_;
            else if (needs_iq && iq_count_ >= params_.iq_size)
                dispatch_stall = &ctr_dispatch_stall_iq_;
            else if (t.is_load && ldq_.size() >= params_.ldq_size)
                dispatch_stall = &ctr_dispatch_stall_ldq_;
            else if (t.is_store && stq_.size() >= params_.stq_size)
                dispatch_stall = &ctr_dispatch_stall_stq_;
            else if (!rename_.canRename(*coldAt(dispatch_end_).d.inst))
                dispatch_stall = &ctr_dispatch_stall_prf_;
            else
                return 0; // would dispatch this cycle
        }
    }

    // Fetch: any fetch attempt runs the predictor and the Fetch Agent —
    // never skip through one. Fetch is quiescent only when redirecting
    // (resume cycle known), blocked on an unresolved mispredict (resolved
    // by a completion event), out of frontend space (cleared by dispatch),
    // or when the engine is out of instructions.
    if (now >= fetch_resume_at_ && fetch_blocked_seq_ == kNoSeq) {
        if (frontendSize() < params_.frontend_buffer &&
            (fetch_end_ != engine_next_ || !engine_.halted()))
            return 0; // would fetch this cycle
    } else {
        consider(fetch_resume_at_);
    }

    if (!completions_.empty())
        consider(completions_.top().first);

    // Hook-side event sources (agents, custom component, context-switch
    // timer). A value <= now is a veto.
    if (hooks_) {
        Cycle h = hooks_->nextEventCycle(now);
        if (h <= now)
            return 0;
        consider(h);
    }

    // Issue (the one non-O(1) veto, so it runs last): any ready-set
    // entry either issues this cycle (all lanes are free at cycle start —
    // busy) or is blocked on a store-set barrier, in which case it accrues
    // load_waits_storeset every skipped cycle. Wakeup and barrier release
    // are both driven by completion events, so neither can change before
    // the horizon computed from completions_.
    std::uint64_t barrier_waits = 0;
    bool would_issue = false;
    forEachReady([&](SeqNum seq) {
        if (!storeSetBlocked(hotAt(seq), now)) {
            would_issue = true;
            return false;
        }
        ++barrier_waits;
        return true;
    });
    if (would_issue)
        return 0;

    // Memory-side timing events (MSHR/DRAM-slot frees). Fills are passive
    // timestamps in this model, so these only bound how far a skip can
    // run, never unblock the core by themselves.
    consider(mem_.nextEventCycle(now));

    if (horizon == kNoCycle || horizon <= now)
        return 0; // nothing schedulable: leave it to the deadlock detector

    const Cycle skipped = horizon - now;
    cycle_ = horizon;
    ctr_cycles_ += skipped;
    if (dispatch_stall)
        *dispatch_stall += skipped;
    if (barrier_waits)
        ctr_load_waits_storeset_ += barrier_waits * skipped;
    // No lane issued during the gap: the next onCycle()/step() observers
    // must see zero prior-cycle usage and all load/store slots idle.
    usage_ = IssueUsage{};
    free_ls_slots_ = params_.ls_lanes;
    if (hooks_)
        hooks_->onFastForward(now, horizon);
    return skipped;
}

void
Core::processCompletions(Cycle now)
{
    while (!completions_.empty() && completions_.top().first <= now) {
        auto [c, seq] = completions_.top();
        completions_.pop();
        if (!inWindow(seq))
            continue; // squashed
        InstHot& h = hotAt(seq);
        if (h.state != InstHot::kIssued || h.complete_cycle != c)
            continue; // stale event from before a squash/replay
        h.state = InstHot::kDone;
        // Wake before checkViolations: a squash it triggers unlinks only
        // waiters of producers that are not done yet.
        wakeWaiters(seq);
        InstCold& e = coldAt(seq);
        if (tracer_)
            tracer_->stage(e.d, TraceStage::kComplete, now);

        if (h.is_store)
            checkViolations(e, now);

        if (e.mispredicted && fetch_blocked_seq_ == seq)
            resolveMispredict(e, now);
    }
}

void
Core::resolveMispredict(InstCold& e, Cycle now)
{
    fetch_blocked_seq_ = kNoSeq;
    fetch_resume_at_ =
        std::max(fetch_resume_at_, now + 1 + params_.redirect_penalty);
    if (!e.mispredict_counted) {
        e.mispredict_counted = true;
        if (e.d.isCondBranch()) {
            ++ctr_branch_mispredicts_;
            ++mispredict_by_pc_[e.d.pc];
            if (e.used_custom)
                ++ctr_custom_mispredicts_;
        } else {
            ++ctr_target_mispredicts_;
        }
    }
    ++ctr_mispredict_squashes_;
    if (hooks_) {
        Cycle stall = hooks_->onSquash(now, e.d.seq, &e.d);
        retire_stall_until_ = std::max(retire_stall_until_, stall);
    }
}

void
Core::squashAfter(SeqNum last_kept, Cycle now, const char* reason)
{
    ++stats_.counter(std::string("squash_") + reason);

    // Squashed slots are recycled in place: rewinding dispatch_end_ and
    // fetch_end_ to the first squashed seq turns the whole squashed range
    // [first_squashed, engine_next_) into the replay window — no copies,
    // no destruction, and each record keeps its prediction bookkeeping
    // for the refetch.
    const SeqNum first_squashed = std::max(last_kept + 1, head_seq_);
    pfm_assert(first_squashed <= dispatch_end_,
               "squash point beyond dispatch window");

    // ROB part, youngest first (matches the historical pull order).
    unsigned squashed_writers = 0;
    for (SeqNum s = dispatch_end_; s > first_squashed;) {
        --s;
        InstHot& h = hotAt(s);
        InstCold& e = coldAt(s);
        const OpTraits& t = e.d.inst->traits();
        if (t.writes_rd && e.d.inst->rd != 0)
            ++squashed_writers;
        if (e.d.isStore())
            store_sets_.storeInactive(e.d.pc, e.d.seq);
        if (h.state == InstHot::kWaiting) {
            unlinkWaiter(s, first_squashed);
            clearReady(s);
            --iq_count_;
        }
        // Reset backend state for replay.
        h.state = InstHot::kFrontend;
        h.complete_cycle = kNoCycle;
        e.forwarded = false;
        e.forwarded_from = kNoSeq;
        e.service_level = 0;
        e.replayed = true;
        if (tracer_)
            tracer_->stage(e.d, TraceStage::kSquash, now);
    }

    // The frontend pipe and staging slot are strictly younger.
    for (SeqNum s = std::max(dispatch_end_, first_squashed); s < fetch_end_;
         ++s) {
        InstHot& h = hotAt(s);
        InstCold& e = coldAt(s);
        h.state = InstHot::kFrontend;
        h.complete_cycle = kNoCycle;
        e.replayed = true;
        if (tracer_)
            tracer_->stage(e.d, TraceStage::kSquash, now);
    }
    if (staged_valid_)
        coldAt(fetch_end_).replayed = true;

    stats_.counter("squashed_instrs") +=
        (fetch_end_ + (staged_valid_ ? 1 : 0)) - first_squashed;

    dispatch_end_ = first_squashed;
    fetch_end_ = first_squashed;
    staged_valid_ = false;

    // Rebuild rename state from the surviving window.
    rename_.rebuildBegin(squashed_writers);
    for (SeqNum s = head_seq_; s < dispatch_end_; ++s)
        rename_.rebuildAdd(*coldAt(s).d.inst, s);

    // Drop the squashed tails of the load/store queues (seq order).
    auto purge = [last_kept](CircularQueue<SeqNum>& q) {
        std::size_t n = 0;
        while (n < q.size() && q.at(q.size() - 1 - n) > last_kept)
            ++n;
        q.popBack(n);
    };
    purge(ldq_);
    purge(stq_);

    if (fetch_blocked_seq_ != kNoSeq && fetch_blocked_seq_ > last_kept)
        fetch_blocked_seq_ = kNoSeq;
    fetch_resume_at_ =
        std::max(fetch_resume_at_, now + 1 + params_.redirect_penalty);
}

void
Core::drainWriteBuffer(Cycle now)
{
    if (write_buffer_.empty())
        return;
    PendingWrite w = write_buffer_.front();
    write_buffer_.pop_front();
    mem_.access(w.addr, now, MemAccessType::kStore);
    ++ctr_stores_drained_;
}

void
Core::resetStats()
{
    stats_cycle_base_ = cycle_;
    stats_retired_base_ = retired_;
    stats_.resetAll();
    mispredict_by_pc_.clear();
    miss_by_pc_.clear();
}

double
Core::ipc() const
{
    Cycle cycles = cycle_ - stats_cycle_base_;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(retired_ - stats_retired_base_) /
           static_cast<double>(cycles);
}

double
Core::mpki() const
{
    std::uint64_t insts = retired_ - stats_retired_base_;
    if (insts == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(stats_.get("branch_mispredicts")) /
           static_cast<double>(insts);
}


void
Core::saveState(CkptWriter& w) const
{
    bp_->saveState(w);
    btb_.saveState(w);
    ras_.saveState(w);
    store_sets_.saveState(w);
    rename_.saveState(w);

    w.put(cycle_);
    w.put(retired_);
    w.put(halt_retired_);

    // The slab is a ring indexed by seq; only the live window
    // [head_seq_, engine_next_) is meaningful (this includes the staged
    // slot and any replay window). DynInst::inst is a pointer into the
    // program image — field-wise serialization skips it; loadState()
    // re-resolves it from the PC so checkpoint bytes stay deterministic.
    w.put(head_seq_);
    w.put(dispatch_end_);
    w.put(fetch_end_);
    w.put(engine_next_);
    w.put(staged_valid_);
    // Field order is the historical single-struct record layout, so the
    // two-plane split does not change checkpoint bytes; the denormalized
    // hot flags (cls/is_load/is_store) are derived state and are not
    // serialized.
    auto put_rec = [&w](const InstHot& h, const InstCold& e) {
        w.put(e.d.seq);
        w.put(e.d.pc);
        w.put(e.d.next_pc);
        w.put(e.d.taken);
        w.put(e.d.mem_addr);
        w.put(e.d.mem_size);
        w.put(e.d.result);
        w.put(e.d.store_val);
        w.put(h.dispatch_ready);
        w.put(e.pred_taken);
        w.put(e.used_custom);
        w.put(e.mispredicted);
        w.put(e.mispredict_counted);
        w.put(e.replayed);
        w.put(h.state);
        w.put(h.src1);
        w.put(h.src2);
        w.put(h.complete_cycle);
        w.put(h.mem_barrier);
        w.put(e.forwarded);
        w.put(e.forwarded_from);
        w.put(e.service_level);
    };
    for (SeqNum s = head_seq_; s != engine_next_; ++s)
        put_rec(hotAt(s), coldAt(s));

    // The IQ is derived state; it is written in the historical putVec
    // layout, as are the LSQ rings.
    w.putVec(waitingRecords());
    ldq_.saveState(w);
    stq_.saveState(w);

    // priority_queue has no iteration; drain a copy (it is tiny: at most
    // one completion event per in-flight instruction).
    auto pq = completions_;
    w.put<std::uint64_t>(pq.size());
    while (!pq.empty()) {
        w.put(pq.top().first);
        w.put(pq.top().second);
        pq.pop();
    }

    // Field-wise: PendingWrite is 12 value bytes padded to 16; raw bytes
    // would leak the indeterminate tail into the image.
    w.put<std::uint64_t>(write_buffer_.size());
    for (const PendingWrite& pw : write_buffer_) {
        w.put(pw.addr);
        w.put(pw.size);
    }

    w.put(fetch_blocked_seq_);
    w.put(fetch_resume_at_);
    w.put(retire_stall_until_);
    w.put(free_ls_slots_);
    w.put(usage_);

    auto put_profile = [&w](const std::unordered_map<Addr,
                                                     std::uint64_t>& m) {
        std::vector<Addr> keys;
        keys.reserve(m.size());
        for (const auto& [pc, count] : m)
            keys.push_back(pc);
        std::sort(keys.begin(), keys.end());
        w.put<std::uint64_t>(keys.size());
        for (Addr pc : keys) {
            w.put(pc);
            w.put(m.at(pc));
        }
    };
    put_profile(mispredict_by_pc_);
    put_profile(miss_by_pc_);

    w.put(stats_cycle_base_);
    w.put(stats_retired_base_);
    stats_.saveState(w);
}

void
Core::loadState(CkptReader& r)
{
    bp_->loadState(r);
    btb_.loadState(r);
    ras_.loadState(r);
    store_sets_.loadState(r);
    rename_.loadState(r);

    r.get(cycle_);
    r.get(retired_);
    r.get(halt_retired_);

    r.get(head_seq_);
    r.get(dispatch_end_);
    r.get(fetch_end_);
    r.get(engine_next_);
    r.get(staged_valid_);
    auto get_rec = [this, &r](InstHot& h, InstCold& e) {
        r.get(e.d.seq);
        r.get(e.d.pc);
        r.get(e.d.next_pc);
        r.get(e.d.taken);
        r.get(e.d.mem_addr);
        r.get(e.d.mem_size);
        r.get(e.d.result);
        r.get(e.d.store_val);
        e.d.inst = &engine_.program().instAt(e.d.pc);
        // Rebuild the denormalized hot-plane decode fields from the
        // re-resolved instruction (they are not part of the image).
        const OpTraits& t = e.d.inst->traits();
        h.cls = t.cls;
        h.is_load = t.is_load;
        h.is_store = t.is_store;
        r.get(h.dispatch_ready);
        r.get(e.pred_taken);
        r.get(e.used_custom);
        r.get(e.mispredicted);
        r.get(e.mispredict_counted);
        r.get(e.replayed);
        r.get(h.state);
        r.get(h.src1);
        r.get(h.src2);
        r.get(h.complete_cycle);
        r.get(h.mem_barrier);
        r.get(e.forwarded);
        r.get(e.forwarded_from);
        r.get(e.service_level);
    };
    for (SeqNum s = head_seq_; s != engine_next_; ++s)
        get_rec(hotAt(s), coldAt(s));

    // The stored IQ must be exactly the kWaiting records, in seq order;
    // the wait lists and ready bits are rebuilt from the slab, registering
    // in ascending seq as dispatch did, so each list is newest-first.
    std::vector<SeqNum> iq;
    r.getVec(iq);
    for (std::size_t i = 0; i < iq.size(); ++i) {
        if (i > 0 && iq[i] <= iq[i - 1])
            r.fail("IQ list is not strictly increasing at entry " +
                   std::to_string(i));
        if (!inWindow(iq[i]))
            r.fail("IQ entry seq " + std::to_string(iq[i]) +
                   " lies outside the ROB window [" +
                   std::to_string(head_seq_) + ", " +
                   std::to_string(dispatch_end_) + ")");
    }
    const std::vector<SeqNum> waiting = waitingRecords();
    const auto [wait_it, iq_it] =
        std::mismatch(waiting.begin(), waiting.end(), iq.begin(), iq.end());
    if (wait_it != waiting.end() && (iq_it == iq.end() || *wait_it < *iq_it))
        r.fail("IQ list lacks waiting seq " + std::to_string(*wait_it));
    if (iq_it != iq.end())
        r.fail("IQ list names seq " + std::to_string(*iq_it) +
               ", which is not waiting");
    std::fill(wake_head_.begin(), wake_head_.end(), kNoSeq);
    std::fill(ready_.begin(), ready_.end(), 0);
    iq_count_ = static_cast<unsigned>(waiting.size());
    for (SeqNum s : waiting)
        enterScheduler(s);

    auto get_queue = [&r](CircularQueue<SeqNum>& q, const char* what) {
        std::vector<SeqNum> v;
        r.getVec(v);
        if (v.size() > q.capacity())
            r.fail(std::string(what) + " has " + std::to_string(v.size()) +
                   " entries, capacity " + std::to_string(q.capacity()));
        q.clear();
        for (SeqNum s : v)
            q.push(s);
    };
    get_queue(ldq_, "LDQ");
    get_queue(stq_, "STQ");

    completions_ = {};
    std::uint64_t nc = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < nc; ++i) {
        Cycle c = r.get<Cycle>();
        SeqNum s = r.get<SeqNum>();
        completions_.emplace(c, s);
    }

    write_buffer_.clear();
    for (std::uint64_t n = r.get<std::uint64_t>(); n; --n) {
        PendingWrite pw;
        r.get(pw.addr);
        r.get(pw.size);
        write_buffer_.push_back(pw);
    }

    r.get(fetch_blocked_seq_);
    r.get(fetch_resume_at_);
    r.get(retire_stall_until_);
    r.get(free_ls_slots_);
    r.get(usage_);

    auto get_profile = [&r](std::unordered_map<Addr, std::uint64_t>& m) {
        m.clear();
        std::uint64_t n = r.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr pc = r.get<Addr>();
            m[pc] = r.get<std::uint64_t>();
        }
    };
    get_profile(mispredict_by_pc_);
    get_profile(miss_by_pc_);

    r.get(stats_cycle_base_);
    r.get(stats_retired_base_);
    stats_.loadState(r);
}

} // namespace pfm
