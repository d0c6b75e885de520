/**
 * @file
 * Pass-through CoreHooks decorator for the hook-gating identity tests.
 *
 * It forwards every call unchanged to the hooks object it wraps and
 * declares no HookGate of its own, so a core it is installed on delivers
 * every event — each retirement, each fetched conditional branch, each
 * ticked cycle — to the object behind it. Installed over a PfmSystem, it
 * runs that system ungated; the same run without it is gated. The two
 * must end in the same machine state (DESIGN.md §8 "Hook gating").
 */

#ifndef PFM_TESTS_PASSTHROUGH_HOOKS_H
#define PFM_TESTS_PASSTHROUGH_HOOKS_H

#include <cstdint>

#include "core/core.h"

namespace pfm {

class PassthroughHooks final : public CoreHooks
{
  public:
    explicit PassthroughHooks(CoreHooks& inner) : inner_(inner) {}

    FetchOverride
    fetchOverride(const DynInst& d, bool replayed, Cycle now) override
    {
        return inner_.fetchOverride(d, replayed, now);
    }

    RetireDecision
    onRetire(const DynInst& d, Cycle now) override
    {
        RetireDecision r = inner_.onRetire(d, now);
        if (r.allow)
            ++retired_;
        return r;
    }

    Cycle
    onSquash(Cycle now, SeqNum last_kept, const DynInst* branch) override
    {
        return inner_.onSquash(now, last_kept, branch);
    }

    void
    onCycle(Cycle now, unsigned free_ls_slots,
            const IssueUsage& usage) override
    {
        inner_.onCycle(now, free_ls_slots, usage);
    }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return inner_.nextEventCycle(now);
    }

    void
    onFastForward(Cycle from, Cycle to) override
    {
        inner_.onFastForward(from, to);
    }

    /** onRetire() calls that let the instruction retire. */
    std::uint64_t retired() const { return retired_; }

  private:
    CoreHooks& inner_;
    std::uint64_t retired_ = 0;
};

} // namespace pfm

#endif // PFM_TESTS_PASSTHROUGH_HOOKS_H
