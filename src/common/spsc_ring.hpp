/**
 * @file
 * Single-producer / single-consumer lock-free ring used as the
 * cross-thread event-stream hand-off in concurrent monitoring mode
 * (core/replay.hpp). The design separates *staging* from *publishing*:
 * the producer stages any number of pushes privately and then makes
 * them visible with one release-store (`publish()`), so a batch of
 * records — e.g. everything sealed by one journal op, including a
 * ConflictAlert arrival together with its broadcast bookkeeping —
 * appears to the consumer atomically. That batch horizon is what the
 * delivery-order proofs in the replay engine lean on.
 *
 * Write-minimizing by construction (at most one shared-cacheline store
 * per publish / per pop, never per push): indices are monotonically
 * increasing 64-bit sequence numbers, slot = seq & (capacity - 1).
 * Each side caches the other side's index and refreshes it only when
 * the cached value would block progress. publish() is write-on-change:
 * with nothing newly staged it stores nothing, so a producer that
 * publishes on every pass does not bounce the line the consumer polls.
 *
 * Thread contract: tryPush/publish/pushed/freeSpace are
 * producer-only; front/pop/consumerEmpty are consumer-only; popped()
 * and published() may be read from either side.
 */

#ifndef PARALOG_COMMON_SPSC_RING_HPP
#define PARALOG_COMMON_SPSC_RING_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace paralog {

template <typename T>
class SpscRing
{
  public:
    /** @p capacity must be a power of two >= 2. */
    explicit SpscRing(std::size_t capacity)
        : slots_(capacity), mask_(capacity - 1)
    {
        static_assert(std::is_nothrow_move_assignable_v<T> ||
                          std::is_move_assignable_v<T>,
                      "ring payload must be move-assignable");
    }

    std::size_t capacity() const { return slots_.size(); }

    // ----------------------------------------------------- producer

    /** Stage @p v into the next slot. Returns false when the ring is
     *  full (the consumer has not yet popped the slot's previous
     *  occupant). Staged pushes are invisible until publish(). */
    bool
    tryPush(T &&v)
    {
        if (head_ - cachedTail_ >= slots_.size()) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            if (head_ - cachedTail_ >= slots_.size())
                return false;
        }
        slots_[head_ & mask_] = std::move(v);
        ++head_;
        return true;
    }

    /** Make every staged push visible to the consumer at once. A no-op
     *  when nothing was staged since the last publish. */
    void
    publish()
    {
        if (head_ == lastPublished_)
            return;
        lastPublished_ = head_;
        published_.store(head_, std::memory_order_release);
    }

    /** Staged pushes (published or not). Producer-side view. */
    std::uint64_t pushed() const { return head_; }

    /** Slots the producer could still stage without a consumer pop. */
    std::size_t
    freeSpace()
    {
        cachedTail_ = tail_.load(std::memory_order_acquire);
        return slots_.size() - static_cast<std::size_t>(head_ - cachedTail_);
    }

    // ----------------------------------------------------- consumer

    /** Oldest published element, or nullptr when none is visible. The
     *  pointer stays valid until pop(). */
    T *
    front()
    {
        if (tailLocal_ == cachedPublished_) {
            cachedPublished_ = published_.load(std::memory_order_acquire);
            if (tailLocal_ == cachedPublished_)
                return nullptr;
        }
        return &slots_[tailLocal_ & mask_];
    }

    /** Drop the element front() returned. Undefined if empty. */
    void
    pop()
    {
        tail_.store(++tailLocal_, std::memory_order_release);
    }

    bool consumerEmpty() { return front() == nullptr; }

    // --------------------------------------------------- either side

    /** Total elements consumed so far (acquire: a reader that sees
     *  popped() > i also sees every side effect the consumer performed
     *  before popping element i). */
    std::uint64_t
    popped() const
    {
        return tail_.load(std::memory_order_acquire);
    }

    /** Total elements published so far. */
    std::uint64_t
    published() const
    {
        return published_.load(std::memory_order_acquire);
    }

  private:
    std::vector<T> slots_;
    const std::size_t mask_;

    // Producer-owned line: private head, the cached consumer tail and
    // the last value stored to published_.
    alignas(64) std::uint64_t head_ = 0;
    std::uint64_t cachedTail_ = 0;
    std::uint64_t lastPublished_ = 0;

    // Consumer-owned line: private tail cursor plus cached publish mark.
    alignas(64) std::uint64_t tailLocal_ = 0;
    std::uint64_t cachedPublished_ = 0;

    // Shared lines, one atomic each.
    alignas(64) std::atomic<std::uint64_t> published_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
};

} // namespace paralog

#endif // PARALOG_COMMON_SPSC_RING_HPP
