/**
 * @file
 * Metadata TLB (M-TLB) accelerator (section 2): a small LRU lookup table
 * from application virtual pages to metadata virtual pages. A hit turns
 * the two-level metadata address computation (~6 handler instructions)
 * into a single lookup; misses pay the full software walk and install
 * the mapping. Mappings are never flushed: no lifeguard deallocates
 * metadata pages, so an installed mapping never goes stale, and only
 * LRU eviction removes one.
 *
 * Modelled as an exact-LRU table. A SlotIndex maps each page to its
 * slot, so a lookup costs one hash probe however many pages are live:
 * the stream is page-local but scattered (barnes AddrCheck touches
 * about 60 pages at a 0.9999 hit ratio), so a most-recent-first list
 * walk would take several hops per hit. Each slot carries the clock stamp of
 * its last use; a miss at capacity evicts the least stamp. Stamps are
 * unique and grow with every lookup, so the least one is the exact LRU
 * entry and the hit/miss sequence is the one an LRU list gives. The
 * stamp scan runs on misses only, which are rare here.
 */

#ifndef PARALOG_ACCEL_MTLB_HPP
#define PARALOG_ACCEL_MTLB_HPP

#include <cstdint>
#include <vector>

#include "accel/slot_index.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {

class MetadataTlb
{
  public:
    static constexpr unsigned kPageShift = 12;

    /** Handler-instruction cost of a metadata address computation. */
    static constexpr std::uint32_t kHitCost = 1;
    static constexpr std::uint32_t kMissCost = 6;

    explicit MetadataTlb(std::uint32_t entries, bool enabled);

    /**
     * Look up the metadata page for @p app_addr; returns the handler
     * instruction cost of the address computation and installs the
     * mapping on a miss.
     */
    std::uint32_t lookupCost(Addr app_addr);

    bool enabled() const { return enabled_; }
    std::size_t size() const { return used_; }

    StatSet stats{"mtlb"};

  private:
    std::uint32_t capacity_;
    bool enabled_;
    std::vector<std::uint64_t> pages_;
    std::vector<std::uint64_t> stamps_; ///< clock_ at last use
    SlotIndex index_;
    std::uint64_t clock_ = 0;
    std::size_t used_ = 0;

    Counter &hitsCtr_{stats.counter("hits")};
    Counter &missesCtr_{stats.counter("misses")};
};

} // namespace paralog

#endif // PARALOG_ACCEL_MTLB_HPP
