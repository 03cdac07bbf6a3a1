/**
 * @file
 * LOCKSET lifeguard (Eraser-style data-race detector, extension).
 *
 * Demonstrates the section 5.3 discussion: LockSet violates condition 2
 * (application *reads* can cause metadata *writes* during state
 * refinement), so its read handlers are split into a synchronization-free
 * fast path (read-only metadata comparison) and a locked slow path (a
 * single metadata write under LgContext::atomicSlowPath cost).
 *
 * Metadata: 2 bits per application byte encoding the Eraser state
 * machine (virgin / exclusive / shared / shared-modified); candidate
 * lock sets are interned per 8-byte granule in a side table.
 */

#ifndef PARALOG_LIFEGUARD_LOCKSET_HPP
#define PARALOG_LIFEGUARD_LOCKSET_HPP

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "lifeguard/lifeguard.hpp"

namespace paralog {

class LockSet : public Lifeguard
{
  public:
    // Eraser state machine values stored in shadow memory.
    static constexpr std::uint8_t kVirgin = 0;
    static constexpr std::uint8_t kExclusive = 1;
    static constexpr std::uint8_t kShared = 2;
    static constexpr std::uint8_t kSharedModified = 3;

    explicit LockSet(std::uint32_t num_threads);

    const char *name() const override { return "LockSet"; }

    LifeguardPolicy
    policy() const override
    {
        LifeguardPolicy p;
        p.usesIt = false; // not propagation-style
        p.usesIf = false; // checks mutate state; not idempotent
        p.wantsRegOps = false;
        p.wantsJumps = false;
        p.heapOnly = true;
        p.caOnSyscall = false;
        return p;
    }

    void handle(const LgEvent &ev, LgContext &ctx) override;

    std::uint8_t state(Addr addr) const { return shadow_.read(addr); }

    std::uint64_t fastPathHits = 0;
    std::uint64_t slowPathEntries = 0;

  private:
    using LockVec = std::vector<Addr>; ///< sorted lock addresses

    struct Granule
    {
        ThreadId firstOwner = kInvalidThread;
        std::uint32_t locksetId = 0;
    };

    /// State-tracking granule: one 2-bit Eraser state per 8-byte unit,
    /// kept in the shadow byte at the granule base. The TSO produce
    /// handler's snapshot layout depends on this and on the shadow's
    /// bits-per-byte staying in sync.
    static constexpr Addr kGranuleBytes = 8;

    static Addr
    granuleOf(Addr addr)
    {
        return addr & ~(kGranuleBytes - 1);
    }

    std::uint32_t internLockset(const LockVec &locks);
    const LockVec &locksetById(std::uint32_t id) const;
    std::uint32_t intersect(std::uint32_t id, const LockVec &held);

    void access(const LgEvent &ev, LgContext &ctx, bool is_write);

    std::vector<LockVec> heldLocks_;            ///< per thread, sorted
    std::map<LockVec, std::uint32_t> internMap_;
    std::vector<LockVec> locksets_;             ///< id -> set
    std::unordered_map<Addr, Granule> granules_;
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_LOCKSET_HPP
