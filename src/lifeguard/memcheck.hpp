/**
 * @file
 * MEMCHECK-style lifeguard (extension beyond the paper's evaluation,
 * mentioned in section 4.1): tracks the *initialized* state of every
 * memory byte and propagates it through registers, detecting reads of
 * uninitialized heap data. Like TaintCheck it is propagation-style and
 * benefits from IT; unlike TaintCheck its IT state conflicts with
 * malloc/free (fresh allocations reset initialized state), which is
 * exactly the high-level remote-conflict case the paper motivates IT
 * flushing with.
 */

#ifndef PARALOG_LIFEGUARD_MEMCHECK_HPP
#define PARALOG_LIFEGUARD_MEMCHECK_HPP

#include "lifeguard/lifeguard.hpp"

namespace paralog {

class MemCheck : public Lifeguard
{
  public:
    static constexpr std::uint8_t kUninit = 0;
    static constexpr std::uint8_t kInit = 1;

    explicit MemCheck(std::uint32_t num_threads)
        : Lifeguard(num_threads, 1)
    {
        // Registers start initialized (they hold defined zeros).
        for (auto &regs : regMeta_)
            regs.fill(kInit);
    }

    const char *name() const override { return "MemCheck"; }

    LifeguardPolicy
    policy() const override
    {
        LifeguardPolicy p;
        p.usesIt = true;
        p.usesIf = false;
        // Init bits are state transitions, not a lattice: a deferred
        // uninit-read check must run before the store that initializes
        // its bytes, so the self-RMW exemption is off (accel_config).
        p.itExemptSelfRmw = false;
        // Absorbed loads carry a deferred uninit-read check: a row
        // overwrite must deliver it, not drop it (accel_config).
        p.itFlushOnOverwrite = true;
        p.wantsRegOps = true;
        p.wantsJumps = false;
        p.heapOnly = false;
        p.caOnSyscall = true;
        return p;
    }

    void handle(const LgEvent &ev, LgContext &ctx) override;

    bool
    isInitialized(Addr addr, unsigned size) const
    {
        for (unsigned i = 0; i < size; ++i) {
            if (shadow_.read(addr + i) != kInit)
                return false;
        }
        return true;
    }

  private:
    static std::uint64_t
    ones(unsigned bytes)
    {
        return (bytes >= 64) ? ~0ULL : ((1ULL << bytes) - 1);
    }

    /// Only report uninitialized reads inside this range (the heap);
    /// set by the platform so globals/stack don't false-positive.
    AddrRange checkedRange_{0, kInvalidAddr};

  public:
    void setCheckedRange(const AddrRange &r) { checkedRange_ = r; }
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_MEMCHECK_HPP
