/**
 * @file
 * Retire Agent (Section 2.1): matches retired PCs against the RST,
 * detects the beginning of the ROI (squash-synchronizing the core and the
 * component), and constructs observation packets. Destination-value
 * packets contend for PRF read ports with the execution lanes (portP);
 * store values come from the SQ head and branch outcomes from the branch
 * queue (no port needed).
 */

#ifndef PFM_PFM_RETIRE_AGENT_H
#define PFM_PFM_RETIRE_AGENT_H

#include "common/stats.h"
#include "common/timed_port.h"
#include "core/core.h"
#include "pfm/packets.h"
#include "pfm/pfm_params.h"
#include "pfm/snoop_table.h"

namespace pfm {

class RetireAgent
{
  public:
    /**
     * @p lane_usage is the core's previous-cycle issue-lane usage at
     * retire time (Core::laneUsage()), read by the portP check.
     */
    RetireAgent(const PfmParams& params, StatGroup& stats,
                const IssueUsage& lane_usage);

    RetireSnoopTable& rst() { return rst_; }

    bool roiActive() const { return roi_active_; }

    /**
     * Deferred-attach synchronization: the workload's roi_begin marker
     * retired during warmup, before this agent existed, so the warmup
     * boundary itself begins the ROI (see PfmSystem::beginRoiAtBoundary).
     */
    void beginRoi() { roi_active_ = true; }

    /**
     * An instruction is about to retire. Fills @p decision; when the
     * instruction matched an RST entry a packet is queued for the
     * component (or retirement stalls on ObsQ-R / PRF-port pressure).
     * @p roi_begin_out is set when this retirement begins the ROI.
     */
    void onRetire(const DynInst& d, Cycle now, RetireDecision& decision,
                  bool& roi_begin_out);

    /** Component side: pop the next observation packet. */
    bool popObservation(ObsPacket& out, Cycle now);

    /** Pop regardless of availability (ROI-boundary synchronous drain). */
    bool drainOne(ObsPacket& out, Cycle now);

    /** Count of retired count_only RST hits for @p pc (feedback wire). */
    std::uint64_t countFor(Addr pc) const;

    size_t pendingObservations() const { return obsq_r_.size(); }

    /** The ObsQ-R channel itself (telemetry, horizons, debug dumps). */
    const TimedPort<ObsPacket>& obsPort() const { return obsq_r_; }

    void reset();

    void saveState(CkptWriter& w) const;
    void loadState(CkptReader& r);

  private:
    bool portAvailable() const;

    PfmParams params_;
    StatGroup& stats_;
    // Bound once; onRetire() runs for every retired instruction.
    Counter& ctr_rst_hits_;
    Counter& ctr_retired_in_roi_;
    Counter& ctr_port_stalls_;
    RetireSnoopTable rst_;
    TimedPort<ObsPacket> obsq_r_;
    const IssueUsage& usage_;
    bool roi_active_ = false;
    std::unordered_map<Addr, std::uint64_t> counts_;
};

} // namespace pfm

#endif // PFM_PFM_RETIRE_AGENT_H
