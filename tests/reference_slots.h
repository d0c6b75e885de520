/**
 * @file
 * Reference copies of the unsorted MSHR pool (Cache::mshrAcquire /
 * holdMshr / nextEventCycle) and DRAM request-slot pool (Dram::access /
 * nextEventCycle), kept behaviourally verbatim from the linear-argmin
 * sources the sorted SlotArray replaced. test_layout_equiv.cc runs them
 * in lockstep with the production classes: keeping the free times sorted
 * must be a layout change only, never a timing or stats change.
 */

#ifndef PFM_TESTS_REFERENCE_SLOTS_H
#define PFM_TESTS_REFERENCE_SLOTS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "memory/dram.h"

namespace pfm {
namespace refmodel {

class MshrPool
{
  public:
    explicit MshrPool(unsigned mshrs) : mshr_free_at_(mshrs, 0) {}

    Cycle
    mshrAcquire(Cycle now)
    {
        size_t best = 0;
        for (size_t i = 1; i < mshr_free_at_.size(); ++i) {
            if (mshr_free_at_[i] < mshr_free_at_[best])
                best = i;
        }
        last_mshr_ = best;
        Cycle start = std::max(now, mshr_free_at_[best]);
        if (start > now)
            ++mshr_stalls;
        return start;
    }

    void holdMshr(Cycle done) { mshr_free_at_[last_mshr_] = done; }

    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = kNoCycle;
        for (Cycle c : mshr_free_at_)
            if (c > now && c < next)
                next = c;
        return next;
    }

    std::uint64_t mshr_stalls = 0;

  private:
    std::vector<Cycle> mshr_free_at_;
    size_t last_mshr_ = 0;
};

class Dram
{
  public:
    explicit Dram(const DramParams& params)
        : params_(params), slots_(params.max_outstanding, 0)
    {}

    Cycle
    access(Cycle now)
    {
        size_t best = 0;
        for (size_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i] < slots_[best])
                best = i;
        }
        Cycle start = std::max({now, next_issue_, slots_[best]});
        if (start > now)
            ++queue_delay_events;
        next_issue_ = start + params_.issue_gap;
        Cycle done = start + params_.latency;
        slots_[best] = done;
        return done;
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = kNoCycle;
        for (Cycle c : slots_)
            if (c > now && c < next)
                next = c;
        return next;
    }

    std::uint64_t queue_delay_events = 0;

  private:
    DramParams params_;
    Cycle next_issue_ = 0;
    std::vector<Cycle> slots_;
};

} // namespace refmodel
} // namespace pfm

#endif // PFM_TESTS_REFERENCE_SLOTS_H
