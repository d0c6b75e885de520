/**
 * @file
 * Flat-latency DRAM model with a bandwidth cap (minimum inter-request gap)
 * and a bounded number of outstanding requests.
 */

#ifndef PFM_MEMORY_DRAM_H
#define PFM_MEMORY_DRAM_H

#include <algorithm>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace pfm {

struct DramParams {
    unsigned latency = 250;      ///< Table 1: DRAM 250 cycles
    unsigned issue_gap = 2;      ///< min core cycles between request starts
    unsigned max_outstanding = 64;
};

class Dram
{
  public:
    explicit Dram(const DramParams& params);

    /** Request data at cycle @p now; returns completion cycle. */
    Cycle access(Cycle now);

    /**
     * Earliest cycle after @p now at which an outstanding-request slot
     * completes (kNoCycle if none). Fast-forward event-horizon hook.
     */
    Cycle nextEventCycle(Cycle now) const noexcept
    {
        auto it = std::upper_bound(slots_.begin(), slots_.end(), now);
        return it == slots_.end() ? kNoCycle : *it;
    }

    void flush();

    void saveState(CkptWriter& w) const;
    /** Fatal unless the image holds max_outstanding sorted slot times. */
    void loadState(CkptReader& r);

    StatGroup& stats() { return stats_; }

  private:
    DramParams params_;
    Cycle next_issue_ = 0;
    /** Outstanding-request completion times, sorted ascending. */
    std::vector<Cycle> slots_;
    StatGroup stats_;

    // Bound once; access() runs on every DRAM-bound miss.
    Counter& ctr_accesses_;
    Counter& ctr_queue_delay_events_;
};

} // namespace pfm

#endif // PFM_MEMORY_DRAM_H
