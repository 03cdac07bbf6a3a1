/**
 * @file
 * TAINTCHECK lifeguard (Newsome & Song): dynamic information-flow
 * tracking to detect memory-overwrite security exploits. Maintains a
 * tainted state for every memory byte (2 metadata bits per application
 * byte, as in the paper's evaluation) and every register; untrusted
 * input (read() system calls) is tainted, propagation follows data
 * movement, and critical uses (indirect jumps, output syscalls) of
 * tainted data raise violations.
 *
 * Satisfies the section 5.3 conditions (reads map to metadata reads,
 * 1:1 access mapping), so no handler synchronization is needed beyond
 * the platform-enforced event order. Uses IT and the M-TLB.
 */

#ifndef PARALOG_LIFEGUARD_TAINTCHECK_HPP
#define PARALOG_LIFEGUARD_TAINTCHECK_HPP

#include "lifeguard/lifeguard.hpp"

namespace paralog {

class TaintCheck : public Lifeguard
{
  public:
    static constexpr std::uint8_t kUntainted = 0;
    static constexpr std::uint8_t kTainted = 1;

    explicit TaintCheck(std::uint32_t num_threads)
        : Lifeguard(num_threads, 2)
    {
    }

    const char *name() const override { return "TaintCheck"; }

    LifeguardPolicy
    policy() const override
    {
        LifeguardPolicy p;
        p.usesIt = true;
        p.usesIf = false;
        p.wantsRegOps = true;
        p.wantsJumps = true;
        p.heapOnly = false;
        p.caOnSyscall = true;
        return p;
    }

    void handle(const LgEvent &ev, LgContext &ctx) override;

    /** True iff any byte in [addr, addr+size) is tainted (untimed). */
    bool isTainted(Addr addr, unsigned size) const;

    bool regTainted(ThreadId tid, RegId reg) { return regMeta(tid, reg); }

    std::uint64_t conservativeTaints = 0; ///< range-table race fallbacks

  private:
    static bool anyTainted(std::uint64_t packed) { return packed != 0; }

    /** Replicate a register taint bit across @p bytes 2-bit fields. */
    static std::uint64_t
    spread(std::uint8_t taint, unsigned bytes)
    {
        if (!taint)
            return 0;
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < bytes && i < 8; ++i)
            bits |= static_cast<std::uint64_t>(kTainted) << (2 * i);
        return bits;
    }
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_TAINTCHECK_HPP
