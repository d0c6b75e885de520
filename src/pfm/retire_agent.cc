#include "pfm/retire_agent.h"

#include <algorithm>
#include <vector>

#include "sim/checkpoint.h"

namespace pfm {

RetireAgent::RetireAgent(const PfmParams& params, StatGroup& stats,
                         const IssueUsage& lane_usage)
    : params_(params),
      stats_(stats),
      ctr_rst_hits_(stats.counter("rst_hits")),
      ctr_retired_in_roi_(stats.counter("retired_in_roi")),
      ctr_port_stalls_(stats.counter("port_stalls")),
      obsq_r_(stats, "obsq_r", "ObsPacket", params.queue_size),
      usage_(lane_usage)
{}

bool
RetireAgent::portAvailable() const
{
    switch (params_.port) {
      case PortPolicy::kAll:
        return usage_.alu < 4 || usage_.ls < 2 || usage_.fp < 2;
      case PortPolicy::kLs:
        return usage_.ls < 2;
      case PortPolicy::kLs1:
        // Sharing is limited to one specific LS lane; we model issue as
        // filling lane 0 first, so that lane is free only when no LS op
        // issued this cycle.
        return usage_.ls == 0;
    }
    return true;
}

void
RetireAgent::onRetire(const DynInst& d, Cycle now, RetireDecision& decision,
                      bool& roi_begin_out)
{
    decision = RetireDecision{};
    roi_begin_out = false;

    const RstEntry* e = rst_.lookup(d.pc);
    bool actionable = e && (roi_active_ || e->roi_begin);

    if (actionable && e->count_only) {
        ++counts_[d.pc];
        ++ctr_rst_hits_;
        if (roi_active_)
            ++ctr_retired_in_roi_;
        return;
    }

    if (actionable) {
        // Destination-value packets must win a PRF read port first.
        bool needs_port = (e->type == ObsType::kDestValue ||
                           (e->roi_begin && d.inst->traits().writes_rd));
        if (needs_port && !portAvailable()) {
            decision.allow = false;
            decision.retry_at = now + 1;
            ++ctr_port_stalls_;
            return;
        }
        if (obsq_r_.full()) {
            decision.allow = false;
            decision.retry_at = now + 1;
            obsq_r_.noteFullStall();
            return;
        }
    }

    // The instruction retires this cycle: account it exactly once.
    if (roi_active_)
        ++ctr_retired_in_roi_;
    if (!actionable)
        return;

    ++ctr_rst_hits_;

    ObsPacket p;
    p.pc = d.pc;
    if (e->roi_begin) {
        p.type = ObsType::kRoiBegin;
        p.value = d.result;
        roi_active_ = true;
        roi_begin_out = true;
        // The ROI-begin retirement itself counts as in-ROI.
        ++ctr_retired_in_roi_;
    } else {
        p.type = e->type;
        switch (e->type) {
          case ObsType::kDestValue:
            p.value = d.result;
            break;
          case ObsType::kStoreValue:
            p.value = d.store_val;
            p.mem_addr = d.mem_addr;
            break;
          case ObsType::kBranchOutcome:
            p.taken = d.taken;
            break;
          default:
            break;
        }
    }
    obsq_r_.push(p, now);
}

bool
RetireAgent::popObservation(ObsPacket& out, Cycle now)
{
    return obsq_r_.popReady(out, now);
}

bool
RetireAgent::drainOne(ObsPacket& out, Cycle now)
{
    return obsq_r_.popNow(out, now);
}

std::uint64_t
RetireAgent::countFor(Addr pc) const
{
    auto it = counts_.find(pc);
    return it == counts_.end() ? 0 : it->second;
}

void
RetireAgent::reset()
{
    obsq_r_.clear();
    roi_active_ = false;
    counts_.clear();
}


void
RetireAgent::saveState(CkptWriter& w) const
{
    rst_.saveState(w);
    obsq_r_.saveState(w);
    w.put(usage_);
    w.put(roi_active_);
    std::vector<Addr> pcs;
    pcs.reserve(counts_.size());
    for (const auto& [pc, n] : counts_)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());
    w.put<std::uint64_t>(pcs.size());
    for (Addr pc : pcs) {
        w.put(pc);
        w.put(counts_.at(pc));
    }
}

void
RetireAgent::loadState(CkptReader& r)
{
    rst_.loadState(r);
    obsq_r_.loadState(r);
    // The lane usage is the core's, restored with the core section; the
    // copy stays in the image so its layout is unchanged.
    (void)r.get<IssueUsage>();
    r.get(roi_active_);
    counts_.clear();
    std::uint64_t n = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr pc = r.get<Addr>();
        counts_[pc] = r.get<std::uint64_t>();
    }
}

} // namespace pfm
