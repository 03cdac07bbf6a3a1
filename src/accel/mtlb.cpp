#include "accel/mtlb.hpp"

#include "common/logging.hpp"

namespace paralog {

MetadataTlb::MetadataTlb(std::uint32_t entries, bool enabled)
    : capacity_(entries), enabled_(enabled), nodes_(entries)
{
    PARALOG_ASSERT(entries >= 1 && entries < kNil,
                   "bad M-TLB entry count %u", entries);
    for (std::uint16_t i = 0; i + 1u < entries; ++i)
        nodes_[i].next = i + 1;
    free_ = 0;
}

void
MetadataTlb::unlink(std::uint16_t i)
{
    Node &n = nodes_[i];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
MetadataTlb::linkFront(std::uint16_t i)
{
    Node &n = nodes_[i];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = i;
    head_ = i;
    if (tail_ == kNil)
        tail_ = i;
}

void
MetadataTlb::release(std::uint16_t i)
{
    nodes_[i].used = false;
    nodes_[i].next = free_;
    free_ = i;
    --used_;
}

std::uint32_t
MetadataTlb::lookupCost(Addr app_addr)
{
    if (!enabled_)
        return kMissCost;
    std::uint64_t page = app_addr >> kPageShift;
    // MRU-first traversal: metadata touches are page-local, so hits
    // exit after a hop or two.
    for (std::uint16_t i = head_; i != kNil; i = nodes_[i].next) {
        if (nodes_[i].page == page) {
            unlink(i);
            linkFront(i);
            hitsCtr_.inc();
            return kHitCost;
        }
    }
    if (used_ >= capacity_) {
        std::uint16_t victim = tail_;
        unlink(victim);
        release(victim);
    }
    std::uint16_t i = free_;
    free_ = nodes_[i].next;
    nodes_[i].page = page;
    nodes_[i].used = true;
    ++used_;
    linkFront(i);
    missesCtr_.inc();
    return kMissCost;
}

void
MetadataTlb::flushAll()
{
    for (std::uint16_t i = 0; i < capacity_; ++i) {
        nodes_[i].used = false;
        nodes_[i].next = (i + 1u < capacity_) ? i + 1 : kNil;
    }
    free_ = 0;
    head_ = tail_ = kNil;
    used_ = 0;
    flushesCtr_.inc();
}

void
MetadataTlb::flushRange(const AddrRange &range)
{
    if (range.empty())
        return;
    std::uint64_t first = range.begin >> kPageShift;
    std::uint64_t last = (range.end - 1) >> kPageShift;
    for (std::uint16_t i = head_; i != kNil;) {
        std::uint16_t next = nodes_[i].next;
        if (nodes_[i].page >= first && nodes_[i].page <= last) {
            unlink(i);
            release(i);
        }
        i = next;
    }
}

} // namespace paralog
