/**
 * @file
 * Set-associative cache timing model with LRU replacement, in-flight-fill
 * tracking (hit-under-fill == MSHR merging) and a bounded MSHR pool that
 * caps memory-level parallelism at each level.
 *
 * The model is "latency-forwarding": an access at cycle `now` computes the
 * cycle its data is available, mutating tag state immediately but recording
 * fill completion times so later accesses to in-flight lines wait correctly.
 */

#ifndef PFM_MEMORY_CACHE_H
#define PFM_MEMORY_CACHE_H

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace pfm {

struct CacheParams {
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned latency = 2;      ///< added cycles for a hit at this level
    unsigned mshrs = 16;       ///< max concurrent outstanding fills
};

/** Result of probing one level. */
struct CacheProbe {
    bool hit = false;           ///< tag present (possibly still filling)
    Cycle data_ready = kNoCycle; ///< cycle the data can be delivered
    bool was_prefetched = false; ///< first demand touch of a prefetched line
    bool under_fill = false;     ///< hit on a line whose fill is in flight
};

/** Outcome of fill(): what the allocation displaced (observation events). */
struct CacheFillResult {
    bool allocated = false;        ///< false: line was present (fill merge)
    bool evicted = false;          ///< a valid line was displaced
    bool victim_prefetched = false; ///< victim was prefetched, never touched
    Addr victim_line = kBadAddr;   ///< line-aligned address of the victim
};

class Cache
{
  public:
    explicit Cache(const CacheParams& params);

    const std::string& name() const { return params_.name; }
    const CacheParams& params() const { return params_; }

    /**
     * Look up @p addr at cycle @p now. On a hit, returns data_ready =
     * max(now, line fill completion) + latency. On a miss, returns
     * hit=false; the caller is responsible for going to the next level and
     * then calling fill().
     */
    CacheProbe probe(Addr addr, Cycle now, bool is_demand) noexcept;

    /**
     * Allocate @p addr with fill completing at @p fill_done. Evicts LRU.
     * @p prefetched marks prefetch-initiated fills for accuracy stats.
     * The return value reports whether a line was actually allocated and
     * what it displaced (feeds the opt-in cache observation events; cheap
     * enough that unobserved callers just ignore it).
     */
    CacheFillResult fill(Addr addr, Cycle fill_done, bool prefetched) noexcept;

    /**
     * Reserve an MSHR for a miss issued at @p now; returns the cycle the
     * miss request can actually start (>= now; later if all MSHRs busy).
     * Call mshrRelease() time is folded in: the slot is held until
     * @p expected_done computed by the caller via holdMshr().
     */
    Cycle mshrAcquire(Cycle now) noexcept;

    /** Mark the acquired MSHR busy until @p done. Pair with mshrAcquire. */
    void holdMshr(Cycle done) noexcept;

    /** True if the line holding @p addr is present (valid tag). */
    bool contains(Addr addr) const noexcept;

    /**
     * Earliest cycle after @p now at which an MSHR frees (kNoCycle if
     * none are held past @p now). Feeds the fast-forward event horizon:
     * MSHR occupancy is the only cache state that evolves with time
     * rather than with accesses.
     */
    Cycle nextEventCycle(Cycle now) const noexcept
    {
        auto it = std::upper_bound(mshr_free_at_.begin(),
                                   mshr_free_at_.end(), now);
        return it == mshr_free_at_.end() ? kNoCycle : *it;
    }

    /** Invalidate everything (used between experiment runs). */
    void flush();

    /**
     * Checkpoint: the four way planes, LRU clock, MSHR free times and
     * stats. loadState() is fatal on a plane or MSHR array whose length
     * does not match this geometry, or an unsorted MSHR array.
     */
    void saveState(CkptWriter& w) const;
    void loadState(CkptReader& r);

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    /** Index of @p addr's way in the planes, or kNoWay if absent. */
    static constexpr size_t kNoWay = ~size_t{0};
    size_t findWay(Addr addr) const noexcept;

    CacheParams params_;
    unsigned num_sets_;
    unsigned set_bits_ = 0; ///< log2(num_sets_): line number >> set_bits_ = tag

    // Per-way planes, num_sets_ * assoc entries each, row-major by set.
    // A set's probe or victim search touches only its own assoc ways.
    std::vector<Addr> tags_;               ///< kBadAddr = invalid way
    std::vector<Cycle> fill_done_;         ///< fill completion cycle
    std::vector<std::uint64_t> lru_;       ///< higher == more recent
    std::vector<std::uint8_t> prefetched_; ///< prefetch fill, not yet used

    std::uint64_t lru_clock_ = 0;
    /**
     * Per-MSHR next-free cycle, sorted ascending. Which MSHR a miss takes
     * never matters, only the multiset of free times: front() is the one
     * mshrAcquire() waits for and holdMshr() replaces.
     */
    std::vector<Cycle> mshr_free_at_;
    StatGroup stats_;

    // Hot counters resolved once at construction (the stats registry
    // hands out stable refs), so the per-access paths skip the lookup.
    Counter& ctr_accesses_;
    Counter& ctr_misses_;
    Counter& ctr_hits_under_fill_;
    Counter& ctr_prefetch_useful_;
    Counter& ctr_evictions_;
    Counter& ctr_prefetch_unused_;
    Counter& ctr_mshr_stalls_;
};

} // namespace pfm

#endif // PFM_MEMORY_CACHE_H
