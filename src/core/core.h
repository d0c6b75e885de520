/**
 * @file
 * Execution-driven, cycle-level out-of-order superscalar core model
 * (Table 1 configuration). The functional engine supplies the committed
 * dynamic instruction stream at fetch; the core models queue occupancy,
 * rename, issue scheduling, the load/store queue with store-set memory
 * dependence speculation, cache timing and branch (mis)prediction.
 *
 * Modeling deltas vs. real hardware (documented in DESIGN.md):
 *  - wrong-path instructions are not fetched; a mispredicted branch stalls
 *    fetch until it resolves, then pays a redirect penalty;
 *  - branch targets (BTB/RAS) are assumed predicted correctly; only
 *    conditional-branch directions mispredict (the phenomenon PFM targets).
 *
 * PFM hooks: the agents of the paper attach through CoreHooks — fetch-time
 * prediction override (Fetch Agent), retire-time observation (Retire
 * Agent), squash protocol, and per-cycle access to idle load/store issue
 * slots (Load Agent). A hooks owner declares through its HookGate which
 * of those calls it needs: the snooped PCs and the next cycle it can act.
 */

#ifndef PFM_CORE_CORE_H
#define PFM_CORE_CORE_H

#include <array>
#include <bit>
#include <deque>
#include <memory>
#include <unordered_map>
#include <queue>
#include <vector>

#include "branch/btb.h"
#include "branch/predictor.h"
#include "common/circular_queue.h"
#include "common/stats.h"
#include "core/core_params.h"
#include "core/rename.h"
#include "core/store_sets.h"
#include "isa/dyn_inst.h"
#include "isa/inst_source.h"
#include "memory/hierarchy.h"

namespace pfm {

/** Fetch Agent's answer for a fetched conditional branch. */
struct FetchOverride {
    bool has_prediction = false; ///< agent supplies the direction
    bool stall = false;          ///< FST hit but IntQ-F empty: stall fetch
    bool dir = false;            ///< supplied direction
};

/** Retire Agent's answer for a retiring instruction. */
struct RetireDecision {
    bool allow = true;        ///< false: stall retirement, retry later
    Cycle retry_at = 0;
    bool squash_younger = false; ///< ROI-begin core/RF synchronization
    Cycle stall_until = 0;    ///< post-retire stall (squash/squash-done)
};

/** Issue-lane usage in one cycle (for PRF read-port contention, portP). */
struct IssueUsage {
    unsigned alu = 0; ///< simple-ALU lanes used (of 4)
    unsigned ls = 0;  ///< load/store lanes used (of 2)
    unsigned fp = 0;  ///< FP/complex lanes used (of 2)
};

/** Snoop-filter flags of one PC (HookGate::wants). */
enum SnoopFlag : std::uint8_t {
    kSnoopRst = 1, ///< retire-side interest: onRetire()
    kSnoopFst = 2, ///< fetch- and retire-side interest: fetchOverride()
};

/**
 * Which CoreHooks calls the owner needs (DESIGN.md §8 "Hook gating").
 * The defaults deliver every call; an owner that declares less must
 * reach the same state as when it is called for every event.
 *  - Snoop filter: onRetire() only for PCs with a flag set, and
 *    fetchOverride() only for kSnoopFst PCs. A retirement the filter
 *    withholds bumps @c unsnooped_retired instead, when that is set and
 *    the cycle is at least @c unsnooped_from.
 *  - Wake cycle: onCycle() only at cycles >= @c wake.
 */
struct HookGate {
    bool filtered = false;              ///< false: every PC is wanted
    const std::uint8_t* pc_flags = nullptr; ///< flags of pc_base + 4*i
    Addr pc_base = 0;
    std::size_t pc_count = 0;
    Counter* unsnooped_retired = nullptr;
    Cycle unsnooped_from = 0;
    Cycle wake = 0;

    /** Whether an event at @p pc with interest @p mask is delivered. */
    bool
    wants(Addr pc, std::uint8_t mask) const
    {
        if (!filtered)
            return true;
        const Addr i = (pc - pc_base) >> 2;
        return i < pc_count && (pc_flags[i] & mask) != 0;
    }
};

/** Interface the PFM system implements to attach to the core. */
class CoreHooks
{
  public:
    virtual ~CoreHooks() = default;

    /**
     * The calls this owner declares it needs. Not virtual: a decorator
     * that forwards to another hooks object keeps the default gate, so
     * it — and the object behind it — sees every event.
     */
    const HookGate& gate() const { return gate_; }

    /** A conditional branch is being fetched; may override the predictor. */
    virtual FetchOverride
    fetchOverride(const DynInst& d, bool replayed, Cycle now)
    {
        (void)d; (void)replayed; (void)now;
        return {};
    }

    /** An instruction is about to retire. */
    virtual RetireDecision
    onRetire(const DynInst& d, Cycle now)
    {
        (void)d; (void)now;
        return {};
    }

    /**
     * A squash: either a resolved conditional-branch misprediction
     * (@p branch != nullptr) or a memory-order/ROI squash. Instructions
     * with seq > @p last_kept are squashed. Returns the cycle until which
     * retirement must stall (squash/squash-done protocol), or 0.
     */
    virtual Cycle
    onSquash(Cycle now, SeqNum last_kept, const DynInst* branch)
    {
        (void)now; (void)last_kept; (void)branch;
        return 0;
    }

    /**
     * End-of-cycle callback: @p free_ls_slots load/store issue slots were
     * left idle this cycle (Load Agent injection opportunity); @p usage
     * reports which execution lanes read the PRF this cycle (the same as
     * Core::laneUsage()). Called only from cycle gate().wake on.
     */
    virtual void
    onCycle(Cycle now, unsigned free_ls_slots, const IssueUsage& usage)
    {
        (void)now; (void)free_ls_slots; (void)usage;
    }

    /**
     * Fast-forward horizon query: the earliest cycle at which the hook
     * owner needs onCycle() to run to make progress (MLB replay ready,
     * queued agent work, prefetch-engine epoch boundary, context-switch
     * timer, ...). Return a value <= @p now to veto fast-forwarding this
     * cycle, kNoCycle if the owner is fully idle. Every per-cycle event
     * source behind this interface must report here — see DESIGN.md
     * "Fast-forward invariants".
     */
    virtual Cycle
    nextEventCycle(Cycle now) const
    {
        (void)now;
        return kNoCycle;
    }

    /**
     * The core jumped from cycle @p from to @p to without ticking the
     * intervening quiescent cycles. Hook owners must refresh any
     * "previous cycle" state (e.g. last-cycle issue-lane usage is zero
     * across the gap).
     */
    virtual void
    onFastForward(Cycle from, Cycle to)
    {
        (void)from; (void)to;
    }

  protected:
    HookGate gate_;
};

class TraceSink; // sim/trace.h

class Core
{
  public:
    Core(const CoreParams& params, InstSource& engine, Hierarchy& memory);

    void setHooks(CoreHooks* hooks) { hooks_ = hooks; }

    /** Attach a pipeline trace sink (nullptr detaches). */
    void setTracer(TraceSink* tracer) { tracer_ = tracer; }

    /** Advance one core cycle. */
    void tick() noexcept;

    /**
     * Event-horizon fast-forward: if nothing — retire, issue, dispatch,
     * fetch, write-buffer drain, completion, or hook work — can happen at
     * the current cycle, jump cycle() straight to the earliest cycle at
     * which anything can change, bulk-incrementing per-cycle counters so
     * stats stay byte-identical with the ticked execution. Returns the
     * number of cycles skipped (0 when the machine is busy).
     */
    Cycle fastForward() noexcept;

    /**
     * True once the instruction stream is finished: the workload's halt
     * instruction retired, or — for sources that can simply run dry, like
     * a replayed trace cut off at its recording budget — the source is
     * exhausted and every produced instruction has retired. For a stream
     * ending in a halt the two conditions flip on the same cycle (halt is
     * the last instruction the source produces), so native runs are
     * unaffected.
     */
    bool done() const
    {
        return halt_retired_ ||
               (engine_.halted() && head_seq_ == engine_next_);
    }

    Cycle cycle() const { return cycle_; }
    std::uint64_t retired() const { return retired_; }

    /**
     * Issue-lane usage of the last ticked cycle (zero across a
     * fast-forward gap): at retire time, the previous cycle's PRF read
     * ports (the Retire Agent's portP check).
     */
    const IssueUsage& laneUsage() const { return usage_; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }
    const CoreParams& params() const { return params_; }

    /** Reset performance counters (end of warmup). */
    void resetStats();

    /** Mispredictions per kilo-instruction (conditional branches). */
    double mpki() const;

    /** Retired instructions per cycle since the last stats reset. */
    double ipc() const;

    /** Per-PC conditional-branch misprediction counts (bottleneck map). */
    const std::unordered_map<Addr, std::uint64_t>& mispredictProfile() const
    {
        return mispredict_by_pc_;
    }

    /** Per-PC load L1-miss counts weighted by service level. */
    const std::unordered_map<Addr, std::uint64_t>& missProfile() const
    {
        return miss_by_pc_;
    }

    /**
     * Checkpoint the full core state: predictor/BTB/RAS/store-sets/rename,
     * the live instruction slab window, scheduler queues, completion events,
     * write buffer, stall state, PC profiles, stats and their baselines.
     * DynInst::inst pointers are re-resolved from the program on load.
     */
    void saveState(CkptWriter& w) const;
    void loadState(CkptReader& r);

  private:
    /**
     * One in-flight instruction, split across two parallel slab planes
     * (see DESIGN.md "Hot structure layout"). The hot plane holds exactly
     * the fields the per-cycle scheduler reads — wakeup (src1/src2),
     * store-set barrier, retire / fast-forward eligibility (state,
     * complete_cycle, dispatch_ready) — packed into 48 bytes so select
     * never drags the full DynInst payload through L1. The op class and
     * load/store flags are denormalized from the decoded instruction at
     * dispatch so the issue loop's lane/latency selection never leaves
     * the hot plane.
     */
    struct InstHot {
        // Backend state machine.
        enum : std::uint8_t { kFrontend, kWaiting, kIssued, kDone };
        std::uint8_t state = kFrontend;
        OpClass cls = OpClass::kNop; ///< latched from traits() at dispatch
        bool is_load = false;        ///< latched from traits() at dispatch
        bool is_store = false;       ///< latched from traits() at dispatch
        SeqNum src1 = kNoSeq;
        SeqNum src2 = kNoSeq;
        Cycle complete_cycle = kNoCycle;
        Cycle dispatch_ready = 0;    ///< frontend pipe exit cycle
        SeqNum mem_barrier = kNoSeq; ///< store-set barrier (dispatch-time)
    };

    /** Cold plane: per-stage bookkeeping, never touched by a scan loop. */
    struct InstCold {
        DynInst d;

        // Branch prediction bookkeeping.
        bool pred_taken = false;
        bool used_custom = false;   ///< direction came from the Fetch Agent
        bool mispredicted = false;
        bool mispredict_counted = false;
        bool replayed = false;      ///< refetched after a squash

        // Store-to-load forwarding / memory service bookkeeping.
        bool forwarded = false;
        SeqNum forwarded_from = kNoSeq;
        int service_level = 0;
    };

    struct PendingWrite {
        Addr addr;
        unsigned size;
    };

    // --- stage functions (core_fetch.cc / core_issue.cc / core_retire.cc)
    void fetch(Cycle now);
    void dispatch(Cycle now);
    void issue(Cycle now);
    void retire(Cycle now);
    void drainWriteBuffer(Cycle now);
    void processCompletions(Cycle now);

    // --- helpers
    bool inWindow(SeqNum seq) const;
    void assertInWindow(SeqNum seq) const;
    bool sourceDone(SeqNum producer) const;
    void enterScheduler(SeqNum seq);
    void wakeWaiters(SeqNum producer);
    void unlinkWaiter(SeqNum consumer, SeqNum first_squashed);
    std::vector<SeqNum> waitingRecords() const;
    bool storeSetBlocked(const InstHot& e, Cycle now) const;
    void setReady(SeqNum seq)
    {
        const SeqNum slot = seq & slab_mask_;
        ready_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void clearReady(SeqNum seq)
    {
        const SeqNum slot = seq & slab_mask_;
        ready_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /**
     * Visit the ready set oldest-first: each seq in [head_seq_,
     * dispatch_end_) whose ready bit is set, in seq order, until @p fn
     * returns false. Zero words of the bit ring are skipped whole; the
     * word is re-read after every visit, so @p fn may clear the bit of
     * the seq it is handed.
     */
    template <typename Fn>
    void
    forEachReady(Fn&& fn) const
    {
        for (SeqNum s = head_seq_; s < dispatch_end_;) {
            const SeqNum slot = s & slab_mask_;
            const SeqNum bit = slot & 63;
            const std::uint64_t w = ready_[slot >> 6] >> bit;
            if (w == 0) {
                s += ready_span_ - bit;
                continue;
            }
            s += static_cast<SeqNum>(std::countr_zero(w));
            if (s >= dispatch_end_ || !fn(s))
                return;
            ++s;
        }
    }
    bool stageNextFetch();
    void consumeNextFetch();
    Cycle issueLoad(InstCold& e, Cycle now);
    void checkViolations(const InstCold& store, Cycle now);
    void squashAfter(SeqNum last_kept, Cycle now, const char* reason);
    void resolveMispredict(InstCold& e, Cycle now);

    CoreParams params_;
    InstSource& engine_;
    Hierarchy& mem_;
    CoreHooks* hooks_ = nullptr;
    TraceSink* tracer_ = nullptr;
    std::unique_ptr<BranchPredictor> bp_;
    Btb btb_;
    ReturnAddressStack ras_;
    StoreSets store_sets_;
    RenameTracker rename_;

    Cycle cycle_ = 0;
    std::uint64_t retired_ = 0;
    bool halt_retired_ = false;

    // In-flight instruction slab: a power-of-two ring of stable slots
    // indexed by sequence number (hotAt(seq) = hot_slab_[seq & mask]),
    // stored as two parallel planes so scheduler scans stream only the
    // hot one. Sequence numbers are contiguous, so the live window is
    // described by four monotone pointers instead of four containers:
    //
    //   [head_seq_, dispatch_end_)  ROB (dispatched, not retired)
    //   [dispatch_end_, fetch_end_) frontend (fetched, not dispatched)
    //   [fetch_end_, engine_next_)  staged + replay (awaiting (re)fetch)
    //
    // engine_next_ is the seq the functional engine will produce next; a
    // squash rewinds fetch_end_/dispatch_end_ only, so the squashed slots
    // become the replay window in place (no copies, no destruction), and a
    // retire/dispatch/fetch advance recycles slots by bumping a pointer.
    // staged_valid_ marks slot(fetch_end_) as materialized (peeked but not
    // yet consumed by fetch).
    std::vector<InstHot> hot_slab_;
    std::vector<InstCold> cold_slab_;
    SeqNum slab_mask_ = 0;
    SeqNum head_seq_ = 0;
    SeqNum dispatch_end_ = 0;
    SeqNum fetch_end_ = 0;
    SeqNum engine_next_ = 0;
    bool staged_valid_ = false;

    InstHot& hotAt(SeqNum seq) { return hot_slab_[seq & slab_mask_]; }
    const InstHot& hotAt(SeqNum seq) const
    {
        return hot_slab_[seq & slab_mask_];
    }
    InstCold& coldAt(SeqNum seq) { return cold_slab_[seq & slab_mask_]; }
    const InstCold& coldAt(SeqNum seq) const
    {
        return cold_slab_[seq & slab_mask_];
    }
    SeqNum robSize() const { return dispatch_end_ - head_seq_; }
    SeqNum frontendSize() const { return fetch_end_ - dispatch_end_; }

    // Event-driven issue (DESIGN.md "Event-driven issue"). The IQ is the
    // set of kWaiting records; only its size is kept. A waiting consumer
    // with a source whose producer is not yet kDone sits on that
    // producer's intrusive wait list: wake_head_[producer slot] holds the
    // newest node, wake_next_[consumer slot][k] links source k's node to
    // the next older one, and a node is consumer_seq * 2 + k. When the
    // producer's completion event turns it kDone, its list is walked and
    // every consumer whose sources are now all done gets its bit set in
    // ready_, one bit per slab slot; select walks those bits from
    // head_seq_, so issue order stays oldest-first.
    unsigned iq_count_ = 0;
    std::vector<SeqNum> wake_head_;
    std::vector<std::array<SeqNum, 2>> wake_next_;
    std::vector<std::uint64_t> ready_;
    SeqNum ready_span_ = 64; ///< slots per ready_ word: min(64, slab size)

    CircularQueue<SeqNum> ldq_;       ///< in-flight loads, seq order
    CircularQueue<SeqNum> stq_;       ///< in-flight stores, seq order

    using CompletionEvent = std::pair<Cycle, SeqNum>;
    std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                        std::greater<CompletionEvent>>
        completions_;

    std::deque<PendingWrite> write_buffer_;

    SeqNum fetch_blocked_seq_ = kNoSeq;
    Cycle fetch_resume_at_ = 0;
    Cycle retire_stall_until_ = 0;

    unsigned free_ls_slots_ = 0;      ///< computed by issue() each cycle
    IssueUsage usage_;                ///< lanes used this cycle

    std::unordered_map<Addr, std::uint64_t> mispredict_by_pc_;
    std::unordered_map<Addr, std::uint64_t> miss_by_pc_;

    // Stats baseline for ipc()/mpki() after resetStats().
    Cycle stats_cycle_base_ = 0;
    std::uint64_t stats_retired_base_ = 0;

    StatGroup stats_;

    // Hot counters resolved once at construction (the stats registry
    // hands out stable refs), so the per-cycle stages skip the lookup.
    Counter& ctr_cycles_;
    Counter& ctr_fetched_;
    Counter& ctr_dispatched_;
    Counter& ctr_issued_;
    Counter& ctr_retired_;
    Counter& ctr_cond_fetched_;
    Counter& ctr_fetch_stall_pfm_;
    Counter& ctr_btb_misses_;
    Counter& ctr_ras_mispredicts_;
    Counter& ctr_indirect_mispredicts_;
    Counter& ctr_dispatch_stall_rob_;
    Counter& ctr_dispatch_stall_iq_;
    Counter& ctr_dispatch_stall_ldq_;
    Counter& ctr_dispatch_stall_stq_;
    Counter& ctr_dispatch_stall_prf_;
    Counter& ctr_load_waits_storeset_;
    Counter& ctr_stl_forwards_;
    Counter& ctr_stl_partial_;
    Counter& ctr_load_l1_misses_;
    Counter& ctr_retire_stall_wb_;
    Counter& ctr_retire_stall_pfm_;
    Counter& ctr_cond_retired_;
    Counter& ctr_branch_mispredicts_;
    Counter& ctr_custom_mispredicts_;
    Counter& ctr_target_mispredicts_;
    Counter& ctr_mispredict_squashes_;
    Counter& ctr_stores_drained_;
    Distribution& dist_load_latency_;

    // PFM_PF_TRACE demand-miss tracing (env checked once; per-instance
    // counter so concurrent sweep workers don't share a static).
    bool pf_trace_enabled_ = false;
    unsigned long pf_trace_count_ = 0;
};

} // namespace pfm

#endif // PFM_CORE_CORE_H
