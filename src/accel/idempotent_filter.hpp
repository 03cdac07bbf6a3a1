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
 * Modelled as an exact-LRU cache of (addr, size, is_write) keys over a
 * fixed node array: a SlotIndex finds a key's node in one hash probe,
 * and an intrusive LRU list orders the nodes. The list, not a per-node
 * use stamp, picks the victim because misses are common (57% of barnes
 * checks miss on a full filter), and unlinking the tail costs less
 * than scanning 64 stamps. Every hit moves its node to the list head
 * and every miss evicts the tail, so the order is exact LRU; the index
 * only finds keys and plays no part in that order. A check runs once
 * per delivered memory record, so its cost must not grow with the
 * entry count.
 */

#ifndef PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP
#define PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP

#include <cstdint>
#include <vector>

#include "accel/slot_index.hpp"
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
    static constexpr std::uint16_t kNil = SlotIndex::kNil;

    /** (size << 2) | (is_write << 1): the key beside the address. */
    static std::uint64_t
    sideKey(unsigned size, bool is_write)
    {
        return (static_cast<std::uint64_t>(size) << 2) |
               (is_write ? 2u : 0u);
    }

    static std::uint64_t
    keyHash(Addr addr, std::uint64_t side)
    {
        return SlotIndex::hash(addr) ^ side;
    }

    /** Unlink node @p i from the LRU list and the index, and free it. */
    void drop(std::uint16_t i);

    void unlink(std::uint16_t i);
    void linkFront(std::uint16_t i);

    std::uint32_t capacity_;
    std::vector<Addr> addrs_;
    std::vector<std::uint64_t> sideKeys_;
    std::vector<std::uint16_t> prev_;
    std::vector<std::uint16_t> next_;
    std::uint16_t head_ = kNil; ///< most recently used
    std::uint16_t tail_ = kNil; ///< least recently used
    std::uint16_t free_ = kNil; ///< free list through next_
    std::size_t used_ = 0;
    SlotIndex index_;

    Counter &hitsCtr_{stats.counter("hits")};
    Counter &missesCtr_{stats.counter("misses")};
    Counter &evictionsCtr_{stats.counter("evictions")};
    Counter &fullInvalidationsCtr_{stats.counter("full_invalidations")};
    Counter &entryInvalidationsCtr_{stats.counter("entry_invalidations")};
    Counter &versionInvalidationsCtr_{stats.counter("version_invalidations")};
};

} // namespace paralog

#endif // PARALOG_ACCEL_IDEMPOTENT_FILTER_HPP
