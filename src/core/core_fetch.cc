#include <algorithm>

#include "common/log.h"
#include "core/core.h"
#include "sim/trace.h"

namespace pfm {

/**
 * Staging: the next instruction to fetch comes from the replay window
 * (after a squash, the squashed records are still sitting in their slab
 * slots) or from the functional engine (executed on demand into the slot
 * the sequence number maps to).
 */
bool
Core::stageNextFetch()
{
    if (staged_valid_)
        return true;
    if (fetch_end_ != engine_next_) {
        // Replay: the record is already in place with its prediction
        // bookkeeping intact; no move, just mark it staged.
        staged_valid_ = true;
        return true;
    }
    if (engine_.halted())
        return false;
    hotAt(fetch_end_) = InstHot{};
    InstCold& e = coldAt(fetch_end_);
    e = InstCold{};
    e.d = engine_.step();
    pfm_assert(e.d.seq == fetch_end_, "engine sequence out of step");
    engine_next_ = fetch_end_ + 1;
    staged_valid_ = true;
    return true;
}

void
Core::consumeNextFetch()
{
    pfm_assert(staged_valid_, "consume without staged instruction");
    ++fetch_end_;
    staged_valid_ = false;
}

void
Core::fetch(Cycle now)
{
    if (now < fetch_resume_at_ || fetch_blocked_seq_ != kNoSeq)
        return;

    for (unsigned i = 0; i < params_.fetch_width; ++i) {
        if (frontendSize() >= params_.frontend_buffer)
            return;

        if (!stageNextFetch())
            return;
        InstCold& e = coldAt(fetch_end_);

        bool end_group = false;
        Cycle target_bubble = 0;
        if (e.d.isCondBranch()) {
            ++ctr_cond_fetched_;
            FetchOverride fo;
            if (hooks_ && hooks_->gate().wants(e.d.pc, kSnoopFst))
                fo = hooks_->fetchOverride(e.d, e.replayed, now);
            if (fo.stall) {
                ++ctr_fetch_stall_pfm_;
                return; // retry next cycle; do not consume
            }
            bool pred;
            if (fo.has_prediction) {
                pred = fo.dir;
                e.used_custom = true;
            } else if (e.replayed) {
                // Refetched after a squash: the predictor already saw this
                // branch; reuse its recorded prediction without retraining.
                pred = e.pred_taken;
            } else if (params_.bp_kind == BpKind::kPerfect) {
                pred = e.d.taken;
            } else {
                // Fused predict+train: one virtual dispatch per branch and
                // the predictor reuses its per-(PC, history) hash work
                // across the lookup and the training pass.
                pred = bp_->predictAndTrain(e.d.pc, e.d.taken);
            }
            e.pred_taken = pred;
            e.mispredicted = (pred != e.d.taken);
            end_group = pred; // predicted-taken branch ends the fetch group

            // A correctly-predicted-taken branch still needs its target
            // from the BTB; a miss costs a decode redirect bubble (the
            // target is direct and computed at decode).
            if (params_.model_btb && pred && !e.replayed) {
                if (btb_.lookup(e.d.pc) != e.d.next_pc) {
                    target_bubble = params_.btb_fill_penalty;
                    btb_.update(e.d.pc, e.d.next_pc);
                    ++ctr_btb_misses_;
                }
            }
        } else if (e.d.isControl()) {
            end_group = true;
            if (params_.model_btb && !e.replayed) {
                const Instruction& in = *e.d.inst;
                bool is_call = in.traits().writes_rd && in.rd == 1;
                bool is_ret = (in.op == Opcode::kJalr) && in.rd == 0 &&
                              in.rs1 == 1;
                Addr fallthrough = e.d.pc + 4;
                if (in.op == Opcode::kJal) {
                    if (is_call)
                        ras_.push(fallthrough);
                    if (btb_.lookup(e.d.pc) != e.d.next_pc) {
                        target_bubble = params_.btb_fill_penalty;
                        btb_.update(e.d.pc, e.d.next_pc);
                        ++ctr_btb_misses_;
                    }
                } else if (is_ret) {
                    Addr predicted = ras_.pop();
                    if (predicted != e.d.next_pc) {
                        // Return mispredicted: resolve at execute like a
                        // direction mispredict (no wrong path fetched).
                        e.mispredicted = true;
                        ++ctr_ras_mispredicts_;
                    }
                } else {
                    // Indirect jump: BTB target or resolve at execute.
                    if (btb_.lookup(e.d.pc) != e.d.next_pc) {
                        e.mispredicted = true;
                        ++ctr_indirect_mispredicts_;
                    }
                    btb_.update(e.d.pc, e.d.next_pc);
                }
            }
        }

        hotAt(fetch_end_).dispatch_ready = now + params_.frontend_depth;
        bool mispredicted = e.mispredicted;
        SeqNum seq = e.d.seq;
        if (tracer_)
            tracer_->stage(e.d, TraceStage::kFetch, now);
        consumeNextFetch();
        ++ctr_fetched_;

        if (mispredicted) {
            // Fetch stalls on the correct path until the branch resolves
            // (wrong-path fetch is not modeled).
            fetch_blocked_seq_ = seq;
            return;
        }
        if (target_bubble != 0) {
            fetch_resume_at_ = std::max(fetch_resume_at_,
                                        now + target_bubble);
            return;
        }
        if (end_group)
            return;
        if (coldAt(fetch_end_ - 1).d.isHalt())
            return;
    }
}

void
Core::dispatch(Cycle now)
{
    for (unsigned i = 0; i < params_.fetch_width; ++i) {
        if (dispatch_end_ == fetch_end_)
            return;
        InstHot& h = hotAt(dispatch_end_);
        if (h.dispatch_ready > now)
            return;
        if (robSize() >= params_.rob_size) {
            ++ctr_dispatch_stall_rob_;
            return;
        }

        InstCold& e = coldAt(dispatch_end_);
        const OpTraits& t = e.d.inst->traits();
        bool is_ls = t.is_load || t.is_store;
        bool needs_iq = t.cls != OpClass::kNop;

        if (needs_iq && iq_count_ >= params_.iq_size) {
            ++ctr_dispatch_stall_iq_;
            return;
        }
        if (t.is_load && ldq_.size() >= params_.ldq_size) {
            ++ctr_dispatch_stall_ldq_;
            return;
        }
        if (t.is_store && stq_.size() >= params_.stq_size) {
            ++ctr_dispatch_stall_stq_;
            return;
        }

        SeqNum src1, src2;
        if (!rename_.rename(*e.d.inst, e.d.seq, src1, src2)) {
            ++ctr_dispatch_stall_prf_;
            return;
        }

        // Dispatch in place: the record moves from the frontend window to
        // the ROB window by bumping dispatch_end_.
        h.src1 = src1;
        h.src2 = src2;
        // Denormalize the decode fields the issue scan needs, so the
        // scheduler loops never leave the hot plane.
        h.cls = t.cls;
        h.is_load = t.is_load;
        h.is_store = t.is_store;
        pfm_assert(e.d.seq == dispatch_end_, "non-contiguous dispatch");

        // The slot's wait list may still hold a squashed incarnation's.
        wake_head_[dispatch_end_ & slab_mask_] = kNoSeq;
        if (needs_iq) {
            h.state = InstHot::kWaiting;
            ++iq_count_;
            enterScheduler(e.d.seq);
        } else {
            // nop/halt: complete immediately, consuming only retire slots.
            h.state = InstHot::kDone;
            h.complete_cycle = now;
        }

        if (t.is_load) {
            ldq_.push(e.d.seq);
            // Snapshot the store-set barrier now: the LFST tracks the
            // youngest store of the set, which is only this load's
            // producer if read before younger stores dispatch.
            SeqNum barrier = store_sets_.barrierFor(e.d.pc);
            if (barrier != kNoSeq && barrier < e.d.seq)
                h.mem_barrier = barrier;
        }
        if (t.is_store) {
            stq_.push(e.d.seq);
            store_sets_.storeDispatched(e.d.pc, e.d.seq);
        }
        (void)is_ls;

        if (tracer_)
            tracer_->stage(e.d, TraceStage::kDispatch, now);
        ++dispatch_end_;
        ++ctr_dispatched_;
    }
}

} // namespace pfm
