#include "accel/mtlb.hpp"

#include "common/logging.hpp"

namespace paralog {

MetadataTlb::MetadataTlb(std::uint32_t entries, bool enabled)
    : capacity_(entries), enabled_(enabled), pages_(entries),
      stamps_(entries), index_(entries)
{
    PARALOG_ASSERT(entries >= 1 && entries < SlotIndex::kNil,
                   "bad M-TLB entry count %u", entries);
}

std::uint32_t
MetadataTlb::lookupCost(Addr app_addr)
{
    if (!enabled_)
        return kMissCost;
    const std::uint64_t page = app_addr >> kPageShift;
    const std::uint64_t h = SlotIndex::hash(page);
    std::uint16_t i =
        index_.find(h, [&](std::uint16_t s) { return pages_[s] == page; });
    if (i != SlotIndex::kNil) {
        stamps_[i] = ++clock_;
        hitsCtr_.inc();
        return kHitCost;
    }
    // Nothing is ever flushed, so slots fill in order and stay full:
    // once they are, a miss takes over the least recently used slot.
    if (used_ < capacity_) {
        i = static_cast<std::uint16_t>(used_++);
    } else {
        i = 0;
        for (std::uint16_t s = 1; s < capacity_; ++s) {
            if (stamps_[s] < stamps_[i])
                i = s;
        }
        index_.erase(SlotIndex::hash(pages_[i]), i);
    }
    pages_[i] = page;
    stamps_[i] = ++clock_;
    index_.insert(h, i);
    missesCtr_.inc();
    return kMissCost;
}

} // namespace paralog
