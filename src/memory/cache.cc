#include "memory/cache.h"

#include "sim/checkpoint.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/log.h"

namespace pfm {

Cache::Cache(const CacheParams& params)
    : params_(params),
      stats_(params.name + "."),
      ctr_accesses_(stats_.counter("accesses")),
      ctr_misses_(stats_.counter("misses")),
      ctr_hits_under_fill_(stats_.counter("hits_under_fill")),
      ctr_prefetch_useful_(stats_.counter("prefetch_useful")),
      ctr_evictions_(stats_.counter("evictions")),
      ctr_prefetch_unused_(stats_.counter("prefetch_unused")),
      ctr_mshr_stalls_(stats_.counter("mshr_stalls"))
{
    pfm_assert(params_.size_bytes % (params_.assoc * kLineBytes) == 0,
               "%s: size must be a multiple of assoc * line size",
               params_.name.c_str());
    num_sets_ =
        static_cast<unsigned>(params_.size_bytes / (params_.assoc * kLineBytes));
    pfm_assert(isPow2(num_sets_), "%s: number of sets must be a power of two",
               params_.name.c_str());
    set_bits_ = floorLog2(num_sets_);
    const size_t ways = static_cast<size_t>(num_sets_) * params_.assoc;
    tags_.assign(ways, kBadAddr);
    fill_done_.assign(ways, 0);
    lru_.assign(ways, 0);
    prefetched_.assign(ways, 0);
    mshr_free_at_.assign(params_.mshrs, 0);
}

size_t
Cache::findWay(Addr addr) const noexcept
{
    const Addr line = addr / kLineBytes;
    const size_t base = (line & (num_sets_ - 1)) * params_.assoc;
    const Addr tag = line >> set_bits_;
    for (size_t i = base; i < base + params_.assoc; ++i)
        if (tags_[i] == tag)
            return i;
    return kNoWay;
}

CacheProbe
Cache::probe(Addr addr, Cycle now, bool is_demand) noexcept
{
    CacheProbe res;

    if (is_demand)
        ++ctr_accesses_;

    const size_t i = findWay(addr);
    if (i == kNoWay) {
        if (is_demand)
            ++ctr_misses_;
        return res;
    }
    lru_[i] = ++lru_clock_;
    res.hit = true;
    res.data_ready = std::max(now, fill_done_[i]) + params_.latency;
    if (prefetched_[i] && is_demand) {
        res.was_prefetched = true;
        prefetched_[i] = 0;
        ++ctr_prefetch_useful_;
    }
    if (fill_done_[i] > now) {
        res.under_fill = true;
        if (is_demand)
            ++ctr_hits_under_fill_;
    }
    return res;
}

CacheFillResult
Cache::fill(Addr addr, Cycle fill_done, bool prefetched) noexcept
{
    CacheFillResult res;

    // If the line is already present (e.g., racing prefetch + demand),
    // just take the earlier completion.
    if (size_t i = findWay(addr); i != kNoWay) {
        fill_done_[i] = std::min(fill_done_[i], fill_done);
        return res;
    }
    res.allocated = true;

    // Prefer the first invalid way; otherwise evict the first way with
    // the smallest LRU stamp.
    const Addr line = addr / kLineBytes;
    const Addr set = line & (num_sets_ - 1);
    const size_t base = set * params_.assoc;
    size_t v = base;
    for (size_t i = base; i < base + params_.assoc; ++i) {
        if (tags_[i] == kBadAddr) {
            v = i;
            break;
        }
        if (lru_[i] < lru_[v])
            v = i;
    }

    if (tags_[v] != kBadAddr) {
        ++ctr_evictions_;
        if (prefetched_[v])
            ++ctr_prefetch_unused_;
        res.evicted = true;
        res.victim_prefetched = prefetched_[v] != 0;
        res.victim_line = ((tags_[v] << set_bits_) | set) * kLineBytes;
    }

    tags_[v] = line >> set_bits_;
    fill_done_[v] = fill_done;
    prefetched_[v] = prefetched;
    lru_[v] = ++lru_clock_;
    return res;
}

Cycle
Cache::mshrAcquire(Cycle now) noexcept
{
    Cycle start = std::max(now, mshr_free_at_.front());
    if (start > now)
        ++ctr_mshr_stalls_;
    return start;
}

void
Cache::holdMshr(Cycle done) noexcept
{
    // Replace the earliest free time and shift `done` into sorted place.
    auto pos = std::upper_bound(mshr_free_at_.begin() + 1,
                                mshr_free_at_.end(), done);
    std::move(mshr_free_at_.begin() + 1, pos, mshr_free_at_.begin());
    *(pos - 1) = done;
}

bool
Cache::contains(Addr addr) const noexcept
{
    return findWay(addr) != kNoWay;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kBadAddr);
    std::fill(fill_done_.begin(), fill_done_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
    std::fill(mshr_free_at_.begin(), mshr_free_at_.end(), 0);
    lru_clock_ = 0;
}

void
Cache::saveState(CkptWriter& w) const
{
    w.putVec(tags_);
    w.putVec(fill_done_);
    w.putVec(lru_);
    w.putVec(prefetched_);
    w.put(lru_clock_);
    w.putVec(mshr_free_at_);
    stats_.saveState(w);
}

void
Cache::loadState(CkptReader& r)
{
    r.getVecSized(tags_, params_.name + " tag plane");
    r.getVecSized(fill_done_, params_.name + " fill-time plane");
    r.getVecSized(lru_, params_.name + " LRU plane");
    r.getVecSized(prefetched_, params_.name + " prefetched plane");
    r.get(lru_clock_);
    r.getVecSized(mshr_free_at_, params_.name + " MSHR array");
    if (!std::is_sorted(mshr_free_at_.begin(), mshr_free_at_.end()))
        r.fail(params_.name + " MSHR array is not sorted");
    stats_.loadState(r);
}

} // namespace pfm
