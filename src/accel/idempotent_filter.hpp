/**
 * @file
 * Idempotent Filters (IF) accelerator (sections 2 and 4.1).
 *
 * Caches recently seen check events; a hit means the same check was
 * performed since the last invalidation and the event is redundant.
 * Loads and stores are both filtered. The IF absorbs only idempotent
 * checks, which leave no metadata effect pending, so an entry pins no
 * record ID and the IF never delays advertising. For the same reason a
 * local store does not invalidate it: only allocation changes do, as
 * local malloc/free events or ConflictAlert records, plus the TSO
 * version traffic below.
 *
 * Modelled as an exact-LRU cache of (addr, size, is_write) keys. The
 * implementation is a fixed node array with an intrusive LRU list and
 * linear key search: the entry count is hardware-small (64), so a flat
 * scan beats a node-based map with its two allocations per miss — this
 * sits on the once-per-record delivery path.
 */

#ifndef PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP
#define PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {

class IdempotentFilter
{
  public:
    explicit IdempotentFilter(std::uint32_t entries);

    /**
     * Present a check of [addr, addr+size) (class distinguishes read
     * checks from write checks). Returns true if the check hit (the
     * event is redundant and may be absorbed).
     */
    bool checkAndInsert(Addr addr, unsigned size, bool is_write);

    void invalidateAll();
    void invalidateOverlapping(Addr addr, unsigned size);

    /**
     * Invalidate checks made stale by a TSO versioned access: the
     * consume-version annotation proves a concurrent conflicting
     * writer, so a cached check of these bytes predates the conflict
     * and must not absorb later ones. Counted separately
     * ("version_invalidations") so TSO livelock diagnosis can tell
     * version traffic from allocation traffic.
     */
    void invalidateVersioned(Addr addr, unsigned size);

    std::size_t size() const { return used_; }

    StatSet stats{"if"};

  private:
    static constexpr std::uint16_t kNil = 0xFFFF;

    /** (size << 2) | (is_write << 1) | used — 0 for free slots, so a
     *  single compare rejects both mismatches and unused entries. */
    static std::uint64_t
    sideKey(unsigned size, bool is_write)
    {
        return (static_cast<std::uint64_t>(size) << 2) |
               (is_write ? 2u : 0u) | 1u;
    }

    void unlink(std::uint16_t i);
    void linkFront(std::uint16_t i);
    void release(std::uint16_t i);

    std::uint32_t capacity_;
    /// Struct-of-arrays: the key scan touches only addrs_/sideKeys_
    /// (tight, vectorizable); LRU links live apart.
    std::vector<Addr> addrs_;
    std::vector<std::uint64_t> sideKeys_;
    std::vector<std::uint16_t> prev_;
    std::vector<std::uint16_t> next_;
    std::uint16_t head_ = kNil; ///< most recently used
    std::uint16_t tail_ = kNil; ///< least recently used
    std::uint16_t free_ = kNil; ///< free list through next_
    std::size_t used_ = 0;

    Counter &hitsCtr_{stats.counter("hits")};
    Counter &missesCtr_{stats.counter("misses")};
    Counter &evictionsCtr_{stats.counter("evictions")};
    Counter &fullInvalidationsCtr_{stats.counter("full_invalidations")};
    Counter &entryInvalidationsCtr_{stats.counter("entry_invalidations")};
    Counter &versionInvalidationsCtr_{stats.counter("version_invalidations")};
};

} // namespace paralog

#endif // PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP
