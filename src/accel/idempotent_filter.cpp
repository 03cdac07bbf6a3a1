#include "accel/idempotent_filter.hpp"

#include "common/logging.hpp"

namespace paralog {

IdempotentFilter::IdempotentFilter(std::uint32_t entries)
    : capacity_(entries), addrs_(entries, 0), sideKeys_(entries, 0),
      prev_(entries, kNil), next_(entries, kNil), index_(entries)
{
    PARALOG_ASSERT(entries >= 1 && entries < kNil,
                   "bad IF entry count %u", entries);
    for (std::uint16_t i = 0; i + 1u < entries; ++i)
        next_[i] = i + 1;
    free_ = 0;
}

void
IdempotentFilter::unlink(std::uint16_t i)
{
    if (prev_[i] != kNil)
        next_[prev_[i]] = next_[i];
    else
        head_ = next_[i];
    if (next_[i] != kNil)
        prev_[next_[i]] = prev_[i];
    else
        tail_ = prev_[i];
}

void
IdempotentFilter::linkFront(std::uint16_t i)
{
    prev_[i] = kNil;
    next_[i] = head_;
    if (head_ != kNil)
        prev_[head_] = i;
    head_ = i;
    if (tail_ == kNil)
        tail_ = i;
}

void
IdempotentFilter::drop(std::uint16_t i)
{
    unlink(i);
    index_.erase(keyHash(addrs_[i], sideKeys_[i]), i);
    next_[i] = free_;
    free_ = i;
    --used_;
}

bool
IdempotentFilter::checkAndInsert(Addr addr, unsigned size, bool is_write)
{
    const std::uint64_t side = sideKey(size, is_write);
    const std::uint64_t h = keyHash(addr, side);
    std::uint16_t i = index_.find(h, [&](std::uint16_t s) {
        return addrs_[s] == addr && sideKeys_[s] == side;
    });
    if (i != kNil) {
        if (i != head_) {
            unlink(i);
            linkFront(i);
        }
        hitsCtr_.inc();
        return true;
    }
    if (used_ >= capacity_) {
        // Evict the LRU entry and take over its node.
        i = tail_;
        unlink(i);
        index_.erase(keyHash(addrs_[i], sideKeys_[i]), i);
        evictionsCtr_.inc();
    } else {
        i = free_;
        free_ = next_[i];
        ++used_;
    }
    addrs_[i] = addr;
    sideKeys_[i] = side;
    linkFront(i);
    index_.insert(h, i);
    missesCtr_.inc();
    return false;
}

void
IdempotentFilter::invalidateAll()
{
    if (used_ != 0)
        index_.clear();
    for (std::uint16_t i = 0; i < capacity_; ++i)
        next_[i] = (i + 1u < capacity_) ? i + 1 : kNil;
    free_ = 0;
    head_ = tail_ = kNil;
    used_ = 0;
    fullInvalidationsCtr_.inc();
}

void
IdempotentFilter::invalidateOverlapping(Addr addr, unsigned size)
{
    for (std::uint16_t i = head_; i != kNil;) {
        std::uint16_t nxt = next_[i];
        std::uint64_t esize = sideKeys_[i] >> 2;
        if (addrs_[i] < addr + size && addr < addrs_[i] + esize) {
            drop(i);
            entryInvalidationsCtr_.inc();
        }
        i = nxt;
    }
}

void
IdempotentFilter::invalidateVersioned(Addr addr, unsigned size)
{
    versionInvalidationsCtr_.inc();
    invalidateOverlapping(addr, size);
}

} // namespace paralog
