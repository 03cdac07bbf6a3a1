/**
 * @file
 * Flat, sparse backing store for the simulated address space. Values are
 * real: loads return what stores wrote, so lifeguard analyses (taint
 * propagation, allocation checks) operate on genuine data flow.
 */

#ifndef PARALOG_MEM_MAIN_MEMORY_HPP
#define PARALOG_MEM_MAIN_MEMORY_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace paralog {

class MainMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kPageBytes = 1ULL << kPageShift;

    /** Read @p size bytes (1..8) at @p addr as a little-endian integer. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes (1..8) of @p value at @p addr. */
    void write(Addr addr, unsigned size, std::uint64_t value);

    /** Number of distinct pages touched (for tests/stats). */
    std::size_t pageCount() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;

    FlatAddrMap<std::unique_ptr<Page>> pages_;

    /// Last-page cache (the simulator's access streams are strongly
    /// page-local). Page storage is stable, so the pointer stays valid;
    /// mutable so const readers share the fast path.
    mutable std::uint64_t cachedPn_ = ~0ULL;
    mutable Page *cachedPage_ = nullptr;
};

} // namespace paralog

#endif // PARALOG_MEM_MAIN_MEMORY_HPP
