/**
 * @file
 * Fetch Snoop Table (FST) and Retire Snoop Table (RST). Both are
 * configured by the "bitstream" shipped with the executable (in this
 * simulator: by the workload's component factory) and match PCs of fetched
 * / retired instructions.
 */

#ifndef PFM_PFM_SNOOP_TABLE_H
#define PFM_PFM_SNOOP_TABLE_H

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "pfm/packets.h"
#include "sim/checkpoint.h"

namespace pfm {

/** What the Retire Agent should do for a matching retired instruction. */
struct RstEntry {
    ObsType type = ObsType::kDestValue;
    bool roi_begin = false;   ///< triggers the ROI-begin synchronization
    /**
     * No packet: just bump a per-PC event counter in the agent. Used by
     * the prefetchers' sampling feedback (retired instances of the
     * delinquent load per epoch), which in hardware is a dedicated counter
     * wire rather than queue traffic.
     */
    bool count_only = false;
    int user_tag = 0;         ///< component-defined meaning (e.g. "yoffset")
};

/** Field-wise IO: RstEntry has a padding byte before user_tag. */
template <> struct CkptIO<RstEntry> {
    static constexpr std::size_t kWireSize = 1 + 1 + 1 + 4;
    static void
    save(CkptWriter& w, const RstEntry& e)
    {
        w.put(e.type);
        w.put(e.roi_begin);
        w.put(e.count_only);
        w.put(e.user_tag);
    }
    static void
    load(CkptReader& r, RstEntry& e)
    {
        r.get(e.type);
        r.get(e.roi_begin);
        r.get(e.count_only);
        r.get(e.user_tag);
    }
};

class RetireSnoopTable
{
  public:
    void add(Addr pc, const RstEntry& entry) { table_[pc] = entry; }
    const RstEntry* lookup(Addr pc) const
    {
        auto it = table_.find(pc);
        return it == table_.end() ? nullptr : &it->second;
    }
    void clear() { table_.clear(); }
    size_t size() const { return table_.size(); }

    /** Call @p fn with every PC in the table (unordered). */
    template <typename Fn>
    void
    forEachPc(Fn&& fn) const
    {
        for (const auto& [pc, entry] : table_)
            fn(pc);
    }

    void
    saveState(CkptWriter& w) const
    {
        std::vector<Addr> pcs;
        pcs.reserve(table_.size());
        for (const auto& [pc, entry] : table_)
            pcs.push_back(pc);
        std::sort(pcs.begin(), pcs.end());
        w.put<std::uint64_t>(pcs.size());
        for (Addr pc : pcs) {
            w.put(pc);
            w.put(table_.at(pc));
        }
    }

    void
    loadState(CkptReader& r)
    {
        table_.clear();
        std::uint64_t n = r.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr pc = r.get<Addr>();
            table_[pc] = r.get<RstEntry>();
        }
    }

  private:
    std::unordered_map<Addr, RstEntry> table_;
};

class FetchSnoopTable
{
  public:
    void add(Addr pc) { pcs_.insert(pc); }
    bool contains(Addr pc) const { return pcs_.count(pc) != 0; }
    void clear() { pcs_.clear(); }
    size_t size() const { return pcs_.size(); }

    /** Call @p fn with every PC in the table (unordered). */
    template <typename Fn>
    void
    forEachPc(Fn&& fn) const
    {
        for (Addr pc : pcs_)
            fn(pc);
    }

    void
    saveState(CkptWriter& w) const
    {
        std::vector<Addr> sorted(pcs_.begin(), pcs_.end());
        std::sort(sorted.begin(), sorted.end());
        w.putVec(sorted);
    }

    void
    loadState(CkptReader& r)
    {
        std::vector<Addr> sorted;
        r.getVec(sorted);
        pcs_.clear();
        pcs_.insert(sorted.begin(), sorted.end());
    }

  private:
    std::unordered_set<Addr> pcs_;
};

} // namespace pfm

#endif // PFM_PFM_SNOOP_TABLE_H
