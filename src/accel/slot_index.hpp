/**
 * @file
 * Key-to-slot index shared by the IF and the M-TLB: open addressing
 * over a power-of-two bucket array at least four times the slot count,
 * linear probing, and backward-shift delete (no tombstones, so probe
 * runs never outgrow what the live keys need).
 *
 * A bucket is one 64-bit word: the top 48 bits of the key's hash, and
 * the key's 16-bit slot in the low bits (all ones for an empty bucket;
 * no slot takes that value). The key itself stays in the owner's slot
 * arrays, which the caller's match predicate reads only when the
 * stored hash bits already agree. At a load factor of at most 1/4 a
 * lookup touches one or two buckets. (At 1/2 the longer probe runs
 * cost the IF's miss path, where a miss probes, evicts and inserts: on
 * uniform-random keys at 57% misses it then ran slower than the linear
 * key scan it replaces. One-word buckets keep the 1/4 array as small
 * as a 1/2 array of hash-and-slot pairs.)
 */

#ifndef PARALOG_ACCEL_SLOT_INDEX_HPP
#define PARALOG_ACCEL_SLOT_INDEX_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace paralog {

class SlotIndex
{
  public:
    static constexpr std::uint16_t kNil = 0xFFFF;

    explicit SlotIndex(std::uint32_t slots)
        : buckets_(std::bit_ceil(std::max<std::uint32_t>(4 * slots, 2)),
                   kEmpty),
          mask_(static_cast<std::uint32_t>(buckets_.size() - 1)),
          shift_(64 - std::countr_zero(buckets_.size()))
    {
    }

    /** Multiplicative (Fibonacci) hash; home() takes its top bits. */
    static std::uint64_t
    hash(std::uint64_t key)
    {
        return key * 0x9E3779B97F4A7C15ull;
    }

    /** Slot whose hash is @p h and for which @p match(slot) holds, or
     *  kNil. */
    template <typename Match>
    std::uint16_t
    find(std::uint64_t h, Match match) const
    {
        const std::uint64_t tag = h & ~kSlotMask;
        for (std::uint32_t b = home(h);; b = (b + 1) & mask_) {
            const std::uint64_t e = buckets_[b];
            const std::uint16_t slot = slotOf(e);
            if (slot == kNil)
                return kNil;
            if ((e & ~kSlotMask) == tag && match(slot))
                return slot;
        }
    }

    /** Add @p slot under hash @p h (the caller ensures it is absent). */
    void
    insert(std::uint64_t h, std::uint16_t slot)
    {
        std::uint32_t b = home(h);
        while (slotOf(buckets_[b]) != kNil)
            b = (b + 1) & mask_;
        buckets_[b] = (h & ~kSlotMask) | slot;
    }

    /** Remove @p slot, indexed under hash @p h, and shift later members
     *  of its probe run back so every lookup still finds its key. */
    void
    erase(std::uint64_t h, std::uint16_t slot)
    {
        std::uint32_t hole = home(h);
        while (slotOf(buckets_[hole]) != slot)
            hole = (hole + 1) & mask_;
        for (std::uint32_t b = (hole + 1) & mask_;
             slotOf(buckets_[b]) != kNil; b = (b + 1) & mask_) {
            // The entry at b may fill the hole unless its home lies
            // in the cyclic interval (hole, b].
            if (((b - home(buckets_[b])) & mask_) >= ((b - hole) & mask_)) {
                buckets_[hole] = buckets_[b];
                hole = b;
            }
        }
        buckets_[hole] = kEmpty;
    }

    void clear() { std::fill(buckets_.begin(), buckets_.end(), kEmpty); }

  private:
    static constexpr std::uint64_t kSlotMask = 0xFFFF;
    static constexpr std::uint64_t kEmpty = kNil;

    static std::uint16_t
    slotOf(std::uint64_t bucket)
    {
        return static_cast<std::uint16_t>(bucket & kSlotMask);
    }

    /** Home bucket of a hash, or of a bucket word (same top bits). */
    std::uint32_t
    home(std::uint64_t h) const
    {
        return static_cast<std::uint32_t>(h >> shift_);
    }

    std::vector<std::uint64_t> buckets_;
    std::uint32_t mask_;
    int shift_; ///< >= 46: home() reads only the stored hash bits
};

} // namespace paralog

#endif // PARALOG_ACCEL_SLOT_INDEX_HPP
