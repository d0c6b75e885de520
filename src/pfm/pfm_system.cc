#include "pfm/pfm_system.h"

#include "common/log.h"
#include "sim/checkpoint.h"

#include <algorithm>
#include <ostream>

namespace pfm {

PfmSystem::PfmSystem(const PfmParams& params, Hierarchy& mem,
                     const CommitLog& commit_log,
                     const IssueUsage& lane_usage)
    : params_(params),
      mem_(mem),
      stats_("pfm."),
      ctr_fst_retired_hits_(stats_.counter("fst_retired_hits")),
      ctr_squash_packets_(stats_.counter("squash_packets")),
      ctr_retired_in_roi_(stats_.counter("retired_in_roi")),
      fetch_agent_(params, stats_),
      retire_agent_(params, stats_, lane_usage),
      load_agent_(params, mem, commit_log, stats_)
{
    rebuildSnoopFilter();
    publishGate(kNoCycle);
}

PfmSystem::~PfmSystem()
{
    // The hierarchy outlives this system (Simulator member order); never
    // leave a tap pointing into the component we are about to destroy.
    if (component_ && mem_.eventObserver() == component_.get())
        mem_.setEventObserver(nullptr);
}

void
PfmSystem::setComponent(std::unique_ptr<CustomComponent> component)
{
    if (component_ && mem_.eventObserver() == component_.get())
        mem_.setEventObserver(nullptr);
    component_ = std::move(component);
    if (component_) {
        component_->attach(&fetch_agent_, &retire_agent_, &load_agent_,
                           &params_, &stats_);
        if (component_->wantsCacheEvents())
            mem_.setEventObserver(component_.get());
    }
    rebuildSnoopFilter();
    publishGate(0);
}

void
PfmSystem::rebuildSnoopFilter()
{
    // A table wider than this (PCs spread over more than 4 MiB of code)
    // is not built: the gate then delivers every call.
    constexpr Addr kMaxSlots = Addr{1} << 20;

    snoop_flags_.clear();
    gate_.filtered = true;
    gate_.pc_flags = nullptr;
    gate_.pc_count = 0;
    if (!component_)
        return;
    RetireSnoopTable& rst = retire_agent_.rst();
    FetchSnoopTable& fst = fetch_agent_.fst();
    Addr lo = ~Addr{0}, hi = 0;
    auto span = [&lo, &hi](Addr pc) {
        lo = std::min(lo, pc);
        hi = std::max(hi, pc);
    };
    rst.forEachPc(span);
    fst.forEachPc(span);
    if (lo > hi)
        return; // empty tables: nothing is snooped
    const Addr slots = ((hi - lo) >> 2) + 1;
    if (slots > kMaxSlots) {
        gate_.filtered = false;
        return;
    }
    snoop_flags_.assign(static_cast<std::size_t>(slots), 0);
    rst.forEachPc([&](Addr pc) { snoop_flags_[(pc - lo) >> 2] |= kSnoopRst; });
    fst.forEachPc([&](Addr pc) { snoop_flags_[(pc - lo) >> 2] |= kSnoopFst; });
    gate_.pc_flags = snoop_flags_.data();
    gate_.pc_base = lo;
    gate_.pc_count = snoop_flags_.size();
}

void
PfmSystem::publishGate(Cycle wake)
{
    gate_.wake = wake;
    gate_.unsnooped_retired = component_ && retire_agent_.roiActive()
                                  ? &ctr_retired_in_roi_
                                  : nullptr;
    gate_.unsnooped_from = reconfig_until_;
}

FetchOverride
PfmSystem::fetchOverride(const DynInst& d, bool replayed, Cycle now)
{
    (void)replayed;
    FetchOverride fo;
    if (!component_ || now < reconfig_until_)
        return fo;
    FetchAgent::Decision dec = fetch_agent_.onBranchFetch(d, now);
    fo.stall = dec.stall;
    fo.has_prediction = dec.hit && !dec.stall;
    fo.dir = dec.dir;
    return fo;
}

RetireDecision
PfmSystem::onRetire(const DynInst& d, Cycle now)
{
    RetireDecision dec;
    if (!component_ || now < reconfig_until_)
        return dec;

    // Table 2/3 accounting: count the would-be FST traffic at retirement
    // (the retired stream equals the correct-path fetched stream).
    if (retire_agent_.roiActive() && d.isCondBranch() &&
        fetch_agent_.fst().contains(d.pc)) {
        ++ctr_fst_retired_hits_;
    }

    bool roi_begin = false;
    retire_agent_.onRetire(d, now, dec, roi_begin);
    if (roi_begin) {
        // Synchronize: squash everything younger so the core and the
        // component restart from the same point of the dynamic stream.
        dec.squash_younger = true;
        dec.stall_until = squashDoneCycle(now);
        fetch_agent_.setEnabled(true);

        // Drain queued observations in retirement order: packets older
        // than the ROI marker still inform the outgoing state; the
        // component resets exactly at the RoiBegin packet, so snoops that
        // retired just before the marker (e.g. the fill-prologue base
        // addresses) are never lost to the boundary.
        ObsPacket p;
        while (retire_agent_.drainOne(p, now)) {
            if (p.type == ObsType::kRoiBegin && p.pc == d.pc) {
                fetch_agent_.resetStream();
                load_agent_.reset();
                component_->reset();
            }
            component_->deliver(p, now);
        }
        ++stats_.counter("roi_begins");
        publishGate(0);
    }
    return dec;
}

Cycle
PfmSystem::onSquash(Cycle now, SeqNum last_kept, const DynInst* branch)
{
    if (!component_ || !retire_agent_.roiActive() || now < reconfig_until_)
        return 0;

    SquashInfo info;
    info.rollback_pos = fetch_agent_.flushAndRollback(last_kept);
    if (branch && fetch_agent_.fst().contains(branch->pc)) {
        info.branch_mispredict = true;
        info.branch_pc = branch->pc;
        info.actual_taken = branch->taken;
    }
    component_->squash(now, info);
    ++ctr_squash_packets_;
    return squashDoneCycle(now);
}

void
PfmSystem::onCycle(Cycle now, unsigned free_ls_slots, const IssueUsage& usage)
{
    (void)usage; // the Retire Agent reads Core::laneUsage() directly
    if (!component_) {
        publishGate(kNoCycle);
        return;
    }

    if (params_.context_switch_interval != 0) {
        if (next_context_switch_ == 0)
            next_context_switch_ = params_.context_switch_interval;
        if (now >= next_context_switch_) {
            // The context is swapped out: the component leaves the fabric
            // and every agent forgets its state (Section 2.4 isolation).
            next_context_switch_ = now + params_.context_switch_interval;
            reconfig_until_ = now + params_.reconfig_cycles;
            fetch_agent_.setEnabled(false);
            fetch_agent_.resetStream();
            load_agent_.reset();
            retire_agent_.reset();
            component_->reset();
            ++stats_.counter("context_switches");
        }
        if (now < reconfig_until_) {
            // Fabric reconfiguring: no component this interval.
            publishGate(wakeAfter(now));
            return;
        }
    }

    load_agent_.onCycle(now, free_ls_slots);
    if (retire_agent_.roiActive() &&
        cdc::alignToEdge(now, params_.clk_div) == now)
        component_->step(now);
    publishGate(wakeAfter(now));
}

Cycle
PfmSystem::wakeAfter(Cycle now) const
{
    Cycle wake = kNoCycle;
    auto consider = [&wake](Cycle c) {
        if (c < wake)
            wake = c;
    };
    if (params_.context_switch_interval != 0) {
        consider(next_context_switch_);
        if (now < reconfig_until_) {
            consider(reconfig_until_);
            return wake;
        }
    }
    consider(load_agent_.nextEventCycle(now));
    if (retire_agent_.roiActive())
        consider(cdc::nextEdge(now, params_.clk_div));
    return wake;
}

Cycle
PfmSystem::nextEventCycle(Cycle now) const
{
    if (!component_)
        return kNoCycle; // agents only ever carry component-initiated work

    Cycle horizon = kNoCycle;
    auto consider = [&horizon](Cycle c) {
        if (c < horizon)
            horizon = c;
    };

    if (params_.context_switch_interval != 0) {
        if (next_context_switch_ == 0)
            return now; // timer arms on the next onCycle()
        consider(next_context_switch_);
        if (now < reconfig_until_) {
            // Fabric reconfiguring: agents and component are offline, so
            // only the timers matter until the window closes.
            consider(reconfig_until_);
            return horizon;
        }
    }

    Cycle la = load_agent_.nextEventCycle(now);
    if (la <= now)
        return now;
    consider(la);

    if (retire_agent_.roiActive()) {
        // A busy component (nextEventCycle() <= now — the conservative
        // default) vetoes outright: the best such a skip could do is hop
        // to the next RF edge, <= clk_div cycles, and the quiescence scan
        // costs more than ticking those cycles. Queued agent traffic is
        // gated by the ports' CDC stamps: a packet whose head avail is
        // still in the future cannot be popped at any intervening RF edge
        // (popReady() would refuse), so the earliest packet-driven event
        // is the head avail of ObsQ-R / ObsQ-EX, not `now`. A packet
        // already visible (head avail <= now) still vetoes.
        Cycle want = component_->nextEventCycle(now);
        Cycle head = retire_agent_.obsPort().headAvail();
        if (load_agent_.returnPort().headAvail() < head)
            head = load_agent_.returnPort().headAvail();
        if (head < want)
            want = head;
        if (want != kNoCycle) {
            if (want <= now)
                return now;
            consider(cdc::alignToEdge(want, params_.clk_div));
        }
    }
    return horizon;
}

Cycle
PfmSystem::squashDoneCycle(Cycle now) const
{
    // The squash packet reaches the component at its next RF edge; the
    // rollback takes one RF cycle plus the component's pipelined execution
    // latency before squash-done reaches the Fetch Agent via IntQ-F.
    return cdc::nextEdge(now, params_.clk_div) +
           (1 + params_.delay) * params_.clk_div;
}

void
PfmSystem::dumpDebug(std::ostream& os) const
{
    os << "fetch agent: pops=" << fetch_agent_.popCount()
       << " pushes=" << fetch_agent_.pushCount()
       << " enabled=" << fetch_agent_.enabled() << "\n";
    os << "retire agent: roi=" << retire_agent_.roiActive() << "\n";
    retire_agent_.obsPort().dump(os);
    fetch_agent_.predPort().dump(os);
    load_agent_.requestPort().dump(os);
    load_agent_.returnPort().dump(os);
    if (component_)
        component_->dumpDebug(os);
}

std::vector<PortStatsSnapshot>
PfmSystem::portSnapshots() const
{
    return {retire_agent_.obsPort().telemetry().snapshot(),
            fetch_agent_.predPort().telemetry().snapshot(),
            load_agent_.requestPort().telemetry().snapshot(),
            load_agent_.returnPort().telemetry().snapshot()};
}

double
PfmSystem::rstHitPct() const
{
    std::uint64_t retired = stats_.get("retired_in_roi");
    if (retired == 0)
        return 0.0;
    return 100.0 * static_cast<double>(stats_.get("rst_hits")) /
           static_cast<double>(retired);
}

double
PfmSystem::fstHitPct() const
{
    std::uint64_t retired = stats_.get("retired_in_roi");
    if (retired == 0)
        return 0.0;
    return 100.0 * static_cast<double>(stats_.get("fst_retired_hits")) /
           static_cast<double>(retired);
}


void
PfmSystem::beginRoiAtBoundary()
{
    pfm_assert(component_ != nullptr,
               "boundary ROI begin requires an attached component");
    fetch_agent_.setEnabled(true);
    fetch_agent_.resetStream();
    load_agent_.reset();
    retire_agent_.beginRoi();
    component_->reset();
    ++stats_.counter("roi_begins");
    publishGate(0);
}

void
PfmSystem::saveState(CkptWriter& w) const
{
    w.put(next_context_switch_);
    w.put(reconfig_until_);
    fetch_agent_.saveState(w);
    retire_agent_.saveState(w);
    load_agent_.saveState(w);
    stats_.saveState(w);
    w.put<std::uint8_t>(component_ ? 1 : 0);
    if (component_) {
        w.putString(component_->name());
        component_->saveState(w);
    }
}

void
PfmSystem::loadState(CkptReader& r)
{
    r.get(next_context_switch_);
    r.get(reconfig_until_);
    fetch_agent_.loadState(r);
    retire_agent_.loadState(r);
    load_agent_.loadState(r);
    stats_.loadState(r);
    std::uint8_t has_component = r.get<std::uint8_t>();
    if (static_cast<bool>(has_component) != static_cast<bool>(component_)) {
        pfm_fatal("checkpoint %s a component but the simulator %s one",
                  has_component ? "carries" : "lacks",
                  component_ ? "attached" : "did not attach");
    }
    if (component_) {
        std::string saved_name = r.getString();
        if (saved_name != component_->name()) {
            pfm_fatal("checkpoint component '%s' != attached component '%s'",
                      saved_name.c_str(), component_->name().c_str());
        }
        component_->loadState(r);
    }
    rebuildSnoopFilter();
    publishGate(0);
}

} // namespace pfm
