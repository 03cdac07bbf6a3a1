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
 * Modelled as an exact-LRU table over a fixed node array with an
 * intrusive LRU list and linear key search (the entry count is
 * hardware-small), mirroring IdempotentFilter: this sits on the
 * per-handler metadata-touch path, where node-based containers pay an
 * allocation per miss.
 */

#ifndef PARALOG_ACCEL_MTLB_HPP
#define PARALOG_ACCEL_MTLB_HPP

#include <cstdint>
#include <vector>

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
    static constexpr std::uint16_t kNil = 0xFFFF;

    struct Node
    {
        std::uint64_t page = 0;
        std::uint16_t prev = kNil;
        std::uint16_t next = kNil; ///< LRU order
    };

    void unlink(std::uint16_t i);
    void linkFront(std::uint16_t i);

    std::uint32_t capacity_;
    bool enabled_;
    std::vector<Node> nodes_;
    std::uint16_t head_ = kNil;
    std::uint16_t tail_ = kNil;
    std::size_t used_ = 0;

    Counter &hitsCtr_{stats.counter("hits")};
    Counter &missesCtr_{stats.counter("misses")};
};

} // namespace paralog

#endif // PARALOG_ACCEL_MTLB_HPP
