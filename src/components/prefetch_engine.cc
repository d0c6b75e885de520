#include "components/prefetch_engine.h"

#include "sim/checkpoint.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace pfm {

FsmPrefetcher::FsmPrefetcher(std::string name,
                             std::vector<PrefetchStream> streams,
                             const AdaptiveDistance::Params& adapt)
    : CustomComponent(std::move(name)),
      streams_(std::move(streams)),
      trace_enabled_(std::getenv("PFM_PF_TRACE") != nullptr)
{
    state_.resize(streams_.size());
    for (size_t i = 0; i < streams_.size(); ++i) {
        state_[i].idx.assign(streams_[i].levels.size(), 0);
        state_[i].adapt = AdaptiveDistance(adapt);
    }
}

void
FsmPrefetcher::attach(PfmSystem& sys, const Workload& w,
                      std::vector<PrefetchStream> streams,
                      const AdaptiveDistance::Params& adapt)
{
    RetireSnoopTable& rst = sys.retireAgent().rst();

    RstEntry begin;
    begin.type = ObsType::kRoiBegin;
    begin.roi_begin = true;
    rst.add(w.pc("roi_begin"), begin);

    for (const PrefetchStream& s : streams) {
        if (s.feedback_pc != kBadAddr) {
            RstEntry cnt;
            cnt.count_only = true;
            rst.add(s.feedback_pc, cnt);
        }
    }

    sys.setComponent(std::make_unique<FsmPrefetcher>(
        w.name + "-prefetcher", std::move(streams), adapt));
}

void
FsmPrefetcher::onAttach()
{
    ctr_sets_skipped_ = &stats().counter("prefetch_sets_skipped");
    ctr_prefetches_issued_ = &stats().counter("prefetches_issued");
    acct_.bindCounters(stats());
}

void
FsmPrefetcher::reset()
{
    CustomComponent::reset();
    for (size_t i = 0; i < state_.size(); ++i) {
        state_[i].idx.assign(streams_[i].levels.size(), 0);
        state_[i].units_issued = 0;
        state_[i].done = false;
        state_[i].adapt.reset();
        state_[i].pending.clear();
    }
    acct_.reset();
}

Cycle
FsmPrefetcher::nextEventCycle(Cycle now) const
{
    if (replaying())
        return now; // squash replay drains at every RF edge
    Cycle next = kNoCycle;
    for (size_t i = 0; i < streams_.size(); ++i) {
        const PrefetchStream& s = streams_[i];
        const StreamState& st = state_[i];
        if (st.done)
            continue;
        std::uint64_t events = retireAgent().countFor(s.feedback_pc);
        std::uint64_t demand_units = static_cast<std::uint64_t>(
            static_cast<double>(events) / s.events_per_unit);
        if (st.units_issued < demand_units + st.adapt.distance() ||
            !st.pending.empty())
            return now; // issue work outstanding (or blocked on IntQ-IS)
        Cycle boundary = st.adapt.nextEpochBoundary();
        if (boundary <= now)
            return now;
        if (boundary < next)
            next = boundary;
    }
    return next;
}

void
FsmPrefetcher::onObservation(const ObsPacket& p, Cycle now)
{
    (void)p;
    (void)now; // All configuration is in the shipped stream specs.
}

Addr
FsmPrefetcher::currentAddr(const PrefetchStream& s,
                           const StreamState& st) const
{
    std::int64_t off = 0;
    for (size_t l = 0; l < s.levels.size(); ++l) {
        off += static_cast<std::int64_t>(st.idx[l]) * s.levels[l].stride_bytes;
    }
    return s.base + static_cast<Addr>(off);
}

bool
FsmPrefetcher::advance(const PrefetchStream& s, StreamState& st)
{
    // Advance the innermost counter by unit_elems, carrying outward.
    pfm_assert(!s.levels.empty(), "prefetch stream with no levels");
    size_t inner = s.levels.size() - 1;
    st.idx[inner] += s.unit_elems;
    for (size_t l = inner; l > 0; --l) {
        if (st.idx[l] < s.levels[l].count)
            return true;
        st.idx[l] = 0;
        ++st.idx[l - 1];
    }
    if (st.idx[0] >= s.levels[0].count) {
        if (!s.wrap) {
            st.done = true;
            return false;
        }
        st.idx[0] = 0;
    }
    return true;
}

void
FsmPrefetcher::rfStep(Cycle now)
{
    for (size_t i = 0; i < streams_.size(); ++i) {
        const PrefetchStream& s = streams_[i];
        StreamState& st = state_[i];
        if (st.done)
            continue;

        std::uint64_t events = retireAgent().countFor(s.feedback_pc);
        st.adapt.tick(now, events);

        std::uint64_t demand_units = static_cast<std::uint64_t>(
            static_cast<double>(events) / s.events_per_unit);
        std::uint64_t target = demand_units + st.adapt.distance();

        if (trace_enabled_ && (now & 0xFFFF) < 4) {
            std::fprintf(stderr,
                         "lead %s now=%llu events=%llu issued=%llu "
                         "dist=%u intq_free=%u\n",
                         s.name.c_str(), (unsigned long long)now,
                         (unsigned long long)events,
                         (unsigned long long)st.units_issued,
                         st.adapt.distance(),
                         static_cast<unsigned>(
                             loadAgent().requestPort().freeSlots()));
        }

        while (st.units_issued < target) {
            if (st.pending.empty()) {
                Addr a = currentAddr(s, st);
                for (std::int64_t off : s.set_offsets)
                    st.pending.push_back(a + static_cast<Addr>(off));
            }
            if (s.skip_if_full &&
                loadAgent().requestPort().freeSlots() < st.pending.size()) {
                // lbm-style MLP awareness: never push a partial cluster.
                st.pending.clear();
                ++*ctr_sets_skipped_;
                ++st.units_issued;
                if (!advance(s, st))
                    break;
                continue;
            }
            bool blocked = false;
            while (!st.pending.empty()) {
                if (!issueLoad(0, st.pending.back(), 8, now,
                               /*prefetch_only=*/true)) {
                    blocked = true;
                    break;
                }
                if (trace_enabled_ && trace_count_++ < 20) {
                    std::fprintf(stderr, "pf %s unit=%llu addr=%llx\n",
                                 s.name.c_str(),
                                 (unsigned long long)st.units_issued,
                                 (unsigned long long)st.pending.back());
                }
                acct_.onIssue(lineAlign(st.pending.back()));
                st.pending.pop_back();
                ++*ctr_prefetches_issued_;
            }
            if (blocked)
                break;
            ++st.units_issued;
            if (!advance(s, st))
                break;
        }
    }
}


void
FsmPrefetcher::saveState(CkptWriter& w) const
{
    CustomComponent::saveState(w);
    // streams_ is immutable configuration; per-stream runtime state only.
    w.put<std::uint64_t>(state_.size());
    for (const StreamState& st : state_) {
        w.putVec(st.idx);
        w.put(st.units_issued);
        w.put(st.done);
        st.adapt.saveState(w);
        w.putVec(st.pending);
    }
    acct_.saveState(w);
}

void
FsmPrefetcher::loadState(CkptReader& r)
{
    CustomComponent::loadState(r);
    std::uint64_t n = r.get<std::uint64_t>();
    pfm_assert(n == state_.size(),
               "stream count mismatch in checkpoint (%llu vs %zu)",
               (unsigned long long)n, state_.size());
    for (StreamState& st : state_) {
        r.getVec(st.idx);
        r.get(st.units_issued);
        r.get(st.done);
        st.adapt.loadState(r);
        r.getVec(st.pending);
    }
    acct_.loadState(r);
}

} // namespace pfm
