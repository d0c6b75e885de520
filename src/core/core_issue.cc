#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "core/core.h"
#include "sim/trace.h"

namespace pfm {

namespace {

/** Lane group an op class issues to. */
enum LaneGroup { kLaneAlu, kLaneLs, kLaneFp };

LaneGroup
laneOf(OpClass cls)
{
    switch (cls) {
      case OpClass::kIntAlu:
      case OpClass::kBranch:
      case OpClass::kJump:
        return kLaneAlu;
      case OpClass::kLoad:
      case OpClass::kStore:
        return kLaneLs;
      default:
        return kLaneFp; // mul/div/fp go to the FP/complex lanes
    }
}

} // namespace

void
Core::issue(Cycle now)
{
    unsigned budget = params_.issue_width;
    unsigned used_alu = 0, used_ls = 0, used_fp = 0;

    // Oldest-first select over the ready set (waiting records whose
    // producers are all done), until the issue budget runs out.
    forEachReady([&](SeqNum seq) {
        InstHot& e = hotAt(seq);

        if (storeSetBlocked(e, now)) {
            ++ctr_load_waits_storeset_;
            return true;
        }

        LaneGroup lane = laneOf(e.cls);
        bool lane_free =
            (lane == kLaneAlu && used_alu < params_.alu_lanes) ||
            (lane == kLaneLs && used_ls < params_.ls_lanes) ||
            (lane == kLaneFp && used_fp < params_.fp_lanes);
        if (!lane_free)
            return true;

        Cycle complete;
        switch (e.cls) {
          case OpClass::kIntAlu:
          case OpClass::kBranch:
          case OpClass::kJump:
            complete = now + params_.lat_int_alu;
            break;
          case OpClass::kIntMul:
            complete = now + params_.lat_int_mul;
            break;
          case OpClass::kIntDiv:
            complete = now + params_.lat_int_div;
            break;
          case OpClass::kFpAdd:
            complete = now + params_.lat_fp_add;
            break;
          case OpClass::kFpMul:
            complete = now + params_.lat_fp_mul;
            break;
          case OpClass::kFpDiv:
            complete = now + params_.lat_fp_div;
            break;
          case OpClass::kLoad:
            complete = issueLoad(coldAt(seq), now);
            break;
          case OpClass::kStore:
            // Issues once address and data are both ready; agen completes
            // the store (commit happens via the write buffer at retire).
            complete = now + params_.lat_agen;
            break;
          default:
            complete = now + 1;
            break;
        }

        e.state = InstHot::kIssued;
        e.complete_cycle = complete;
        clearReady(seq);
        --iq_count_;
        completions_.emplace(complete, seq);
        ++ctr_issued_;
        if (tracer_)
            tracer_->stage(coldAt(seq).d, TraceStage::kIssue, now);

        switch (lane) {
          case kLaneAlu: ++used_alu; break;
          case kLaneLs:  ++used_ls;  break;
          case kLaneFp:  ++used_fp;  break;
        }
        return --budget > 0;
    });

    usage_ = IssueUsage{used_alu, used_ls, used_fp};
    free_ls_slots_ = params_.ls_lanes - used_ls;
}

Cycle
Core::issueLoad(InstCold& e, Cycle now)
{
    Cycle agen = now + params_.lat_agen;
    Addr lo = e.d.mem_addr;
    Addr hi = lo + e.d.mem_size;

    // Search older in-flight stores (youngest first) for forwarding.
    for (std::size_t i = stq_.size(); i-- > 0;) {
        const SeqNum sseq = stq_.at(i);
        if (sseq > e.d.seq)
            continue;
        assertInWindow(sseq);
        // Only stores that have executed (address known) participate.
        const Cycle store_done = hotAt(sseq).complete_cycle;
        if (store_done == kNoCycle || store_done > agen)
            continue;
        const InstCold& s = coldAt(sseq);
        Addr slo = s.d.mem_addr;
        Addr shi = slo + s.d.mem_size;
        if (hi <= slo || shi <= lo)
            continue; // no overlap
        if (slo <= lo && hi <= shi) {
            // Full containment: store-to-load forwarding.
            e.forwarded = true;
            e.forwarded_from = s.d.seq;
            ++ctr_stl_forwards_;
            return agen + 1;
        }
        // Partial overlap: conservative replay-through-cache penalty.
        e.forwarded = true;
        e.forwarded_from = s.d.seq;
        ++ctr_stl_partial_;
        return agen + 3;
    }

    MemAccessResult r = mem_.access(e.d.mem_addr, agen, MemAccessType::kLoad);
    dist_load_latency_.sample(
        static_cast<double>(r.done - now));
    e.service_level = r.service_level;
    if (r.service_level > 1) {
        ++ctr_load_l1_misses_;
        // Weight the delinquency map by how deep the miss went.
        miss_by_pc_[e.d.pc] +=
            static_cast<std::uint64_t>(r.service_level - 1);
        if (pf_trace_enabled_ && r.service_level >= 4) {
            if (pf_trace_count_++ < 20)
                std::fprintf(stderr, "demand dram addr=%llx\n",
                             (unsigned long long)e.d.mem_addr);
        }
    }
    return r.done;
}

void
Core::checkViolations(const InstCold& store, Cycle now)
{
    Addr slo = store.d.mem_addr;
    Addr shi = slo + store.d.mem_size;

    // Oldest violating load wins (loads kept in sequence order).
    for (std::size_t i = 0; i < ldq_.size(); ++i) {
        const SeqNum lseq = ldq_.at(i);
        if (lseq <= store.d.seq)
            continue;
        assertInWindow(lseq);
        const std::uint8_t lstate = hotAt(lseq).state;
        if (lstate != InstHot::kIssued && lstate != InstHot::kDone)
            continue; // not yet issued: no speculation happened
        const InstCold& l = coldAt(lseq);
        Addr llo = l.d.mem_addr;
        Addr lhi = llo + l.d.mem_size;
        if (lhi <= slo || shi <= llo)
            continue;
        if (l.forwarded_from != kNoSeq && l.forwarded_from >= store.d.seq)
            continue; // got its data from this store or a younger one
        // Memory-order violation: squash from the load (inclusive).
        ++stats_.counter("memory_violations");
        store_sets_.trainViolation(l.d.pc, store.d.pc);
        squashAfter(lseq - 1, now, "violation");
        if (hooks_) {
            Cycle stall = hooks_->onSquash(now, lseq - 1, nullptr);
            retire_stall_until_ = std::max(retire_stall_until_, stall);
        }
        return;
    }
}

} // namespace pfm
