/**
 * @file
 * PfmSystem glues the three Agents, the RF clocking and one custom
 * component to the core through the CoreHooks interface. It owns the
 * squash/squash-done protocol timing, and declares through its HookGate
 * which core events it needs (DESIGN.md §8 "Hook gating"): the PCs its
 * snoop tables match, and the next cycle an agent or the component can
 * act.
 */

#ifndef PFM_PFM_PFM_SYSTEM_H
#define PFM_PFM_PFM_SYSTEM_H

#include <memory>
#include <vector>

#include "core/core.h"
#include "pfm/component.h"
#include "pfm/port_telemetry.h"
#include "pfm/fetch_agent.h"
#include "pfm/load_agent.h"
#include "pfm/retire_agent.h"

namespace pfm {

class PfmSystem : public CoreHooks
{
  public:
    /** @p lane_usage: the core's Core::laneUsage() (Retire Agent portP). */
    PfmSystem(const PfmParams& params, Hierarchy& mem,
              const CommitLog& commit_log, const IssueUsage& lane_usage);
    ~PfmSystem() override;

    /**
     * Install the component and wire it to the agents. A component that
     * opts into cache observation (wantsCacheEvents()) is additionally
     * installed as the Hierarchy's event observer; the tap is removed
     * again when this system is destroyed.
     */
    void setComponent(std::unique_ptr<CustomComponent> component);
    CustomComponent* component() { return component_.get(); }

    FetchAgent& fetchAgent() { return fetch_agent_; }
    RetireAgent& retireAgent() { return retire_agent_; }
    LoadAgent& loadAgent() { return load_agent_; }
    StatGroup& stats() { return stats_; }
    const PfmParams& params() const { return params_; }

    // --- CoreHooks ---------------------------------------------------------
    FetchOverride fetchOverride(const DynInst& d, bool replayed,
                                Cycle now) override;
    RetireDecision onRetire(const DynInst& d, Cycle now) override;
    Cycle onSquash(Cycle now, SeqNum last_kept, const DynInst* branch) override;
    void onCycle(Cycle now, unsigned free_ls_slots,
                 const IssueUsage& usage) override;
    Cycle nextEventCycle(Cycle now) const override;

    /** Debug: dump agent + component state. */
    void dumpDebug(std::ostream& os) const;

    /**
     * Telemetry snapshots of the four paper queues (ObsQ-R, IntQ-F,
     * IntQ-IS, ObsQ-EX), in that order (report/bench columns).
     */
    std::vector<PortStatsSnapshot> portSnapshots() const;

    /** Snoop percentages for Tables 2 and 3. */
    double rstHitPct() const;
    double fstHitPct() const;

    /**
     * Deferred-attach synchronization: when the component is attached at
     * the warmup boundary (SimOptions::defer_component) the workload's
     * roi_begin marker already retired, so the boundary itself plays the
     * ROI-begin role — enable the Fetch Agent, reset the agents and the
     * component, and mark the ROI active. Only statically-configured
     * components (the FSM prefetchers) are eligible; components that rely
     * on snooped configuration values are rejected by the simulator
     * before this is called.
     */
    void beginRoiAtBoundary();

    /**
     * Checkpoint the agents, timers, stats and the attached component.
     * A component without checkpoint support writes only its framework
     * state; Simulator refuses to save or restore a file through it (see
     * CustomComponent::supportsCheckpoint()).
     */
    void saveState(CkptWriter& w) const;
    void loadState(CkptReader& r);

  private:
    /** Squash/squash-done round trip: component rollback through its pipe. */
    Cycle squashDoneCycle(Cycle now) const;

    /**
     * Derive the gate's per-PC flag table from the RST and FST: kSnoopRst
     * for RST PCs, kSnoopFst for FST PCs. Without a component no PC is
     * flagged (every hook is a no-op then).
     */
    void rebuildSnoopFilter();

    /**
     * Publish the onCycle() wake cycle and the withheld-retirement
     * accounting (retired_in_roi while the ROI is active, from the end
     * of any reconfiguration window).
     */
    void publishGate(Cycle wake);

    /**
     * First cycle after onCycle(@p now) at which onCycle() can act: the
     * Load Agent's next work (next cycle while IntQ-IS or staging holds
     * anything, else the earliest MLB replay), the next RF edge while
     * the ROI is active, and the context-switch and reconfiguration
     * timers.
     */
    Cycle wakeAfter(Cycle now) const;

    PfmParams params_;
    Hierarchy& mem_; ///< event-tap installation point (wantsCacheEvents)
    StatGroup stats_;
    // Bound once; onRetire()/onSquash() are per-retirement paths.
    Counter& ctr_fst_retired_hits_;
    Counter& ctr_squash_packets_;
    Counter& ctr_retired_in_roi_;
    Cycle next_context_switch_ = 0;
    Cycle reconfig_until_ = 0;
    FetchAgent fetch_agent_;
    RetireAgent retire_agent_;
    LoadAgent load_agent_;
    std::unique_ptr<CustomComponent> component_;
    std::vector<std::uint8_t> snoop_flags_; ///< gate_.pc_flags storage
};

} // namespace pfm

#endif // PFM_PFM_PFM_SYSTEM_H
