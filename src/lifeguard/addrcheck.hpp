/**
 * @file
 * ADDRCHECK lifeguard (Nethercote): verifies that every heap memory
 * access touches allocated memory. One metadata bit per application
 * byte. Only heap loads/stores and allocation high-level events are
 * captured (a narrow event mux), so the lifeguard is often idle waiting
 * for the application, as observed in Figure 7.
 *
 * Two checks of the same address are idempotent unless a malloc/free
 * intervened, so AddrCheck is the showcase for the Idempotent Filters,
 * invalidated by malloc/free ConflictAlerts. Reads and writes both map
 * to metadata *reads* (condition 2 of section 5.3 holds trivially); the
 * only ordering it needs is of high-level allocation events, provided
 * by the ConflictAlert barriers.
 */

#ifndef PARALOG_LIFEGUARD_ADDRCHECK_HPP
#define PARALOG_LIFEGUARD_ADDRCHECK_HPP

#include "lifeguard/lifeguard.hpp"

namespace paralog {

class AddrCheck : public Lifeguard
{
  public:
    static constexpr std::uint8_t kUnallocated = 0;
    static constexpr std::uint8_t kAllocated = 1;

    explicit AddrCheck(std::uint32_t num_threads)
        : Lifeguard(num_threads, 1)
    {
    }

    const char *name() const override { return "AddrCheck"; }

    LifeguardPolicy
    policy() const override
    {
        LifeguardPolicy p;
        p.usesIt = false;
        p.usesIf = true;
        p.wantsRegOps = false; // only memory accesses matter
        p.wantsJumps = false;
        p.heapOnly = true;
        p.caOnSyscall = false; // allocation state is syscall-oblivious
        return p;
    }

    void handle(const LgEvent &ev, LgContext &ctx) override;

  private:
    void checkAccess(const LgEvent &ev, LgContext &ctx);
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_ADDRCHECK_HPP
