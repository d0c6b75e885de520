#include "memory/dram.h"

#include "sim/checkpoint.h"

#include <algorithm>

namespace pfm {

Dram::Dram(const DramParams& params)
    : params_(params),
      slots_(params.max_outstanding, 0),
      stats_("dram."),
      ctr_accesses_(stats_.counter("accesses")),
      ctr_queue_delay_events_(stats_.counter("queue_delay_events"))
{}

Cycle
Dram::access(Cycle now)
{
    ++ctr_accesses_;

    // Bounded outstanding requests: reuse the earliest-free slot.
    Cycle start = std::max({now, next_issue_, slots_.front()});
    if (start > now)
        ++ctr_queue_delay_events_;
    next_issue_ = start + params_.issue_gap;
    Cycle done = start + params_.latency;
    // Replace the earliest slot and shift `done` into sorted place.
    auto pos = std::upper_bound(slots_.begin() + 1, slots_.end(), done);
    std::move(slots_.begin() + 1, pos, slots_.begin());
    *(pos - 1) = done;
    return done;
}

void
Dram::flush()
{
    next_issue_ = 0;
    std::fill(slots_.begin(), slots_.end(), 0);
}


void
Dram::saveState(CkptWriter& w) const
{
    w.put(next_issue_);
    w.putVec(slots_);
    stats_.saveState(w);
}

void
Dram::loadState(CkptReader& r)
{
    r.get(next_issue_);
    r.getVecSized(slots_, "dram slot array");
    if (!std::is_sorted(slots_.begin(), slots_.end()))
        r.fail("dram slot array is not sorted");
    stats_.loadState(r);
}

} // namespace pfm
