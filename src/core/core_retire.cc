#include <algorithm>

#include "common/log.h"
#include "core/core.h"
#include "sim/trace.h"

namespace pfm {

void
Core::retire(Cycle now)
{
    if (now < retire_stall_until_)
        return;

    for (unsigned i = 0; i < params_.retire_width; ++i) {
        if (head_seq_ == dispatch_end_)
            return;
        const InstHot& hot = hotAt(head_seq_);
        // Writeback-to-retire takes one stage: an instruction completing
        // in cycle X is eligible to retire from X+1.
        if (hot.state != InstHot::kDone || hot.complete_cycle >= now)
            return;
        InstCold& head = coldAt(head_seq_);

        if (head.d.isStore() &&
            write_buffer_.size() >= params_.write_buffer_size) {
            ++ctr_retire_stall_wb_;
            return;
        }

        RetireDecision dec;
        if (hooks_) {
            const HookGate& gate = hooks_->gate();
            if (gate.wants(head.d.pc, kSnoopRst | kSnoopFst))
                dec = hooks_->onRetire(head.d, now);
            else if (gate.unsnooped_retired && now >= gate.unsnooped_from)
                ++*gate.unsnooped_retired;
        }
        if (!dec.allow) {
            retire_stall_until_ = std::max(dec.retry_at, now + 1);
            ++ctr_retire_stall_pfm_;
            return;
        }

        // Commit.
        if (head.d.isStore()) {
            write_buffer_.push_back({head.d.mem_addr, head.d.mem_size});
            engine_.commitLog().retireStore(head.d.seq, head.d.mem_addr,
                                            head.d.mem_size);
            store_sets_.storeInactive(head.d.pc, head.d.seq);
            pfm_assert(!stq_.empty() && stq_.front() == head.d.seq,
                       "STQ out of sync at retire");
            stq_.pop();
        }
        if (head.d.isLoad()) {
            pfm_assert(!ldq_.empty() && ldq_.front() == head.d.seq,
                       "LDQ out of sync at retire");
            ldq_.pop();
        }
        if (head.d.isCondBranch())
            ++ctr_cond_retired_;

        rename_.retire(*head.d.inst, head.d.seq);

        if (head.d.isHalt())
            halt_retired_ = true;

        SeqNum retired_seq = head.d.seq;
        if (tracer_)
            tracer_->stage(head.d, TraceStage::kRetire, now);
        ++head_seq_; // slot recycles once the window wraps past it
        ++retired_;
        ++ctr_retired_;

        if (dec.squash_younger) {
            // ROI-begin synchronization: flush everything younger so the
            // core and the custom component start from the same point.
            squashAfter(retired_seq, now, "roi_begin");
        }
        if (dec.stall_until > now) {
            retire_stall_until_ = dec.stall_until;
            return;
        }
        if (dec.squash_younger)
            return;
    }
}

} // namespace pfm
