/**
 * @file
 * Base class for RF-synthesized custom microarchitectural components.
 *
 * The framework half of this class models everything Section 2 and 4.1.2
 * prescribe for *any* streaming component:
 *  - RF clocking: step() runs once per C core cycles with per-queue
 *    push/pop budgets of W;
 *  - pipelined execution latency D: every emitted prediction becomes
 *    visible D RF cycles after it is produced;
 *  - the final-prediction replay queue: predictions are logged so that a
 *    pipeline squash can roll the output stream back to the exact
 *    position the core's fetch unit restarts from and replay the recorded
 *    final predictions (Section 4.1.2, last paragraph);
 *  - log patching hooks for mispredicted FST branches (a corrected
 *    direction changes which branches the core fetches next, e.g. the
 *    astar maparp branch appearing/disappearing after a waymap flip).
 *
 * Authors implement rfStep() (generation work), onObservation(),
 * onLoadReturn() and optionally patchLog()/onSquashHook().
 */

#ifndef PFM_PFM_COMPONENT_H
#define PFM_PFM_COMPONENT_H

#include <deque>
#include <ostream>
#include <string>

#include "common/stats.h"
#include "memory/cache_events.h"
#include "pfm/fetch_agent.h"
#include "pfm/load_agent.h"
#include "pfm/packets.h"
#include "pfm/pfm_params.h"
#include "pfm/retire_agent.h"

namespace pfm {

class PrefetchAccounting;

/** Context delivered to the component when the core squashes. */
struct SquashInfo {
    std::uint64_t rollback_pos = 0; ///< output stream position to resume at
    bool branch_mispredict = false; ///< squash caused by an FST branch
    Addr branch_pc = kBadAddr;
    bool actual_taken = false;
};

class CustomComponent : public CacheEventObserver
{
  public:
    explicit CustomComponent(std::string name) : name_(std::move(name)) {}
    virtual ~CustomComponent() = default;

    const std::string& name() const { return name_; }

    /** Wire the component to the agents (done by PfmSystem). */
    void attach(FetchAgent* fetch, RetireAgent* retire, LoadAgent* load,
                const PfmParams* params, StatGroup* stats);

    /** One RF cycle: deliver packets, drain replay, then run rfStep(). */
    void step(Cycle now);

    /**
     * Fast-forward horizon: the earliest cycle this component needs an RF
     * step to make progress (PfmSystem aligns it up to the next RF edge).
     * Return a value <= @p now when busy, kNoCycle when idle until an
     * external packet arrives. The default is conservatively "always
     * busy", which simply disables fast-forwarding while such a
     * component's ROI is active; timer-driven components (e.g. the FSM
     * prefetchers' adaptive-distance epochs) override this. Overrides
     * must report *every* internal timer — see DESIGN.md "Fast-forward
     * invariants".
     */
    virtual Cycle nextEventCycle(Cycle now) const { return now; }

    /** Core squash: roll the output stream back and schedule the replay. */
    void squash(Cycle now, const SquashInfo& info);

    /** Synchronous packet delivery (ROI-boundary drain). */
    void deliver(const ObsPacket& p, Cycle now) { onObservation(p, now); }

    /**
     * Opt-in cache observation (DESIGN.md "Cache observation events"):
     * when this returns true, PfmSystem installs the component as the
     * Hierarchy's event observer at attach time and onCacheEvent() fires
     * synchronously for every demand access, fill, evict, handled agent
     * prefetch and MSHR stall. Off by default: a component that does not
     * opt in costs the hierarchy exactly one null compare per site.
     * Events may only update component-internal tables/counters — they
     * run inside the memory access, not at an RF edge, so any
     * timing-visible reaction must wait for rfStep().
     */
    virtual bool wantsCacheEvents() const { return false; }

    /** Cache event delivery (only when wantsCacheEvents() opted in). */
    void onCacheEvent(const CacheEvent& e) override { (void)e; }

    /**
     * Prefetch coverage/accuracy/timeliness accounting, when this
     * component keeps any (nullptr otherwise). Tests assert the
     * conservation invariant on it; the sweep layer snapshots it into
     * BENCH JSON rows when SimOptions::report_prefetch_stats is set.
     */
    virtual const PrefetchAccounting* prefetchAccounting() const
    {
        return nullptr;
    }

    /** Full reset (ROI begin). */
    virtual void reset();

    /** Debug: dump internal engine state (deadlock diagnostics). */
    virtual void dumpDebug(std::ostream& os) const;

    /**
     * Whether this component implements checkpoint/restore. Simulator
     * refuses (pfm_fatal, naming the component) to save or load a
     * checkpoint file through a component that does not opt in —
     * silently dropping component state would break the byte-identity
     * guarantee. Simulator::machineDigest() still covers such a
     * component's framework state (the base saveState()).
     */
    virtual bool supportsCheckpoint() const { return false; }

    /**
     * Checkpoint hooks. The base implementations serialize the framework
     * half (replay log, stream positions, squash/replay cursors, width
     * budgets); overrides must call them first, then handle the
     * component-specific state, keeping save/load symmetric.
     */
    virtual void saveState(CkptWriter& w) const;
    virtual void loadState(CkptReader& r);

  protected:
    // ---- author interface ------------------------------------------------

    /** Generation work for one RF cycle. */
    virtual void rfStep(Cycle now) = 0;

    /** An observation packet (RST hit) arrived. */
    virtual void onObservation(const ObsPacket& p, Cycle now) = 0;

    /** Agents and stats are wired; bind cached stat references here. */
    virtual void onAttach() {}

    /** A load value came back from the Load Agent (possibly OOO). */
    virtual void onLoadReturn(const LoadReturn& r, Cycle now)
    {
        (void)r; (void)now;
    }

    /** Adjust the replay log after a mispredicted FST branch. */
    virtual void patchLog(const SquashInfo& info) { (void)info; }

    /** Extra squash handling (roll back internal cursors). */
    virtual void onSquashHook(Cycle now, const SquashInfo& info)
    {
        (void)now; (void)info;
    }

    /**
     * Emit the next final prediction of the output stream. Returns false
     * when the per-RF-cycle width budget or IntQ-F space is exhausted, or
     * while a squash replay is still draining. @p meta is an opaque
     * component-defined annotation retrievable during patchLog().
     */
    bool emitPrediction(bool dir, Cycle now, std::uint32_t meta = 0);

    /**
     * Issue a load through the Load Agent (width-budgeted). Returns false
     * if the budget or IntQ-IS space is exhausted.
     */
    bool issueLoad(std::uint64_t id, Addr addr, unsigned size, Cycle now,
                   bool prefetch_only = false);

    /**
     * Call-boundary resynchronization: all generated-but-unconsumed
     * predictions are invalid (e.g. the input worklist ended); drop them
     * and resume generation at the core's consumption point.
     */
    void invalidateUnconsumed();

    /** Position the next emitPrediction() will occupy. */
    std::uint64_t genPos() const { return gen_pos_; }

    /** Remaining load pushes this RF cycle (width budget). */
    unsigned loadBudgetLeft() const { return load_budget_; }

    /** Remaining prediction pushes this RF cycle. */
    unsigned predBudgetLeft() const { return pred_budget_; }

    bool replaying() const { return replaying_; }

    /** Replay-log surgery used by patchLog() implementations. */
    void logInsertAt(std::uint64_t pos, bool dir, std::uint32_t meta = 0);
    void logEraseAt(std::uint64_t pos);
    bool logDirAt(std::uint64_t pos) const;
    std::uint32_t logMetaAt(std::uint64_t pos) const;
    void logSetDirAt(std::uint64_t pos, bool dir);

    FetchAgent& fetchAgent() { return *fetch_; }
    LoadAgent& loadAgent() { return *load_; }
    RetireAgent& retireAgent() { return *retire_; }
    const RetireAgent& retireAgent() const { return *retire_; }
    const PfmParams& params() const { return *params_; }
    StatGroup& stats() { return *stats_; }

  private:
    void drainReplay(Cycle now);

    std::string name_;
    FetchAgent* fetch_ = nullptr;
    RetireAgent* retire_ = nullptr;
    LoadAgent* load_ = nullptr;
    const PfmParams* params_ = nullptr;
    StatGroup* stats_ = nullptr;

    struct LogEntry {
        std::uint8_t dir;
        std::uint32_t meta;
    };

    // Final-prediction replay log: positions [log_base_, gen_pos_).
    std::deque<LogEntry> log_;
    std::uint64_t log_base_ = 0;
    std::uint64_t gen_pos_ = 0;

    bool replaying_ = false;
    std::uint64_t replay_cursor_ = 0;
    std::uint64_t replay_end_ = 0;

    // Per-RF-cycle width budgets.
    unsigned pred_budget_ = 0;
    unsigned load_budget_ = 0;
};

} // namespace pfm

#endif // PFM_PFM_COMPONENT_H
