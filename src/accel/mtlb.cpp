#include "accel/mtlb.hpp"

#include "common/logging.hpp"

namespace paralog {

MetadataTlb::MetadataTlb(std::uint32_t entries, bool enabled)
    : capacity_(entries), enabled_(enabled), nodes_(entries)
{
    PARALOG_ASSERT(entries >= 1 && entries < kNil,
                   "bad M-TLB entry count %u", entries);
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
    // Nothing is ever flushed, so slots fill in order and stay full:
    // once they are, a miss takes over the LRU slot.
    std::uint16_t i;
    if (used_ >= capacity_) {
        i = tail_;
        unlink(i);
    } else {
        i = static_cast<std::uint16_t>(used_++);
    }
    nodes_[i].page = page;
    linkFront(i);
    missesCtr_.inc();
    return kMissCost;
}

} // namespace paralog
