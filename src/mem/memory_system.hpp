/**
 * @file
 * Coherent two-level memory hierarchy: per-core private L1-D caches and a
 * shared inclusive L2, with MESI-style invalidation coherence.
 *
 * This is the substrate the paper's order-capturing hardware taps: every
 * coherence transition that transfers or invalidates a block carries the
 * remote block's last-access (thread, record-id) tag, which the caller
 * records as a happened-before dependence arc (section 5.1). In per-core
 * ("limited reduction") mode the producing core's current retire counter
 * is sent instead of the per-block tag.
 *
 * Under TSO, a write that invalidates a block whose last access was a
 * *read* that retired after the write retired is an SC violation: instead
 * of an (un-enforceable) R->W arc the caller receives a version request,
 * triggering the versioned-metadata protocol of section 5.5.
 */

#ifndef PARALOG_MEM_MEMORY_SYSTEM_HPP
#define PARALOG_MEM_MEMORY_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "sim/config.hpp"

namespace paralog {

/** Raw dependence information produced by one access (pre-reduction). */
struct RawArc
{
    ThreadId tid = kInvalidThread; ///< producing thread
    RecordId rid = kInvalidRecord; ///< its record id (or current counter)
    bool fromRead = false;         ///< producer's last access was a read
};

/** TSO version request: the remote reader that violates SC. */
struct VersionRequest
{
    ThreadId readerTid = kInvalidThread;
    RecordId readerRid = kInvalidRecord;
};

/** Outcome of one timed memory access. */
struct AccessResult
{
    Cycle latency = 0;
    std::vector<RawArc> arcs;
    std::vector<VersionRequest> versionRequests;
};

/** Identity of the access for dependence tagging. */
struct AccessTag
{
    ThreadId tid = kInvalidThread;
    RecordId rid = kInvalidRecord;
    Cycle retireCycle = 0;
};

class MemorySystem
{
  public:
    MemorySystem(const SimConfig &cfg, std::uint32_t num_cores);

    /**
     * Perform a timed, coherent data access by @p core.
     *
     * @param tag identity used for per-block dependence tags; pass an
     *            invalid tag for unmonitored accesses (lifeguard metadata)
     * @param capture_arcs collect dependence arcs / version requests
     */
    AccessResult access(CoreId core, Addr addr, unsigned size, bool is_write,
                        const AccessTag &tag, bool capture_arcs);

    /**
     * Unmonitored OS-kernel write (e.g. a read() system call filling a
     * user buffer): updates memory and invalidates cached copies but
     * produces *no* dependence arcs — the visibility gap that
     * ConflictAlert messages compensate for (section 5.4).
     */
    void kernelWrite(Addr addr, unsigned size, std::uint64_t value);

    /** Data-side read/write helpers (values live in MainMemory). */
    MainMemory &memory() { return memory_; }

    /**
     * Advance the per-core retire counter used by per-core ("limited")
     * dependence tracking.
     */
    void setCoreCounter(CoreId core, RecordId rid);

    /** Current MESI state of @p addr in @p core's L1 (for tests). */
    LineState l1State(CoreId core, Addr addr) const;

    Cache &l1(CoreId core) { return *l1s_[core]; }
    Cache &l2() { return *l2_; }

    StatSet stats{"mem"};

  private:
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask of cores with the line
        BlockTag lastWriter;       ///< tag preserved across L1 eviction
    };

    void accessLine(CoreId core, Addr line_addr, bool is_write,
                    const AccessTag &tag, bool capture_arcs,
                    AccessResult &result);
    void addArcFrom(const BlockTag &tag, CoreId producer_core,
                    const AccessTag &self, bool is_write,
                    AccessResult &result, bool capture_arcs);
    Cycle fillFromBelow(Addr line_addr);

    const SimConfig &cfg_;
    std::uint32_t numCores_;
    Counter &readsCtr_{stats.counter("reads")};
    Counter &writesCtr_{stats.counter("writes")};
    Counter &upgradesCtr_{stats.counter("upgrades")};
    Counter &c2cTransfersCtr_{stats.counter("c2c_transfers")};
    Counter &arcsRawCtr_{stats.counter("arcs_raw")};
    Counter &scViolationsCtr_{stats.counter("sc_violations")};
    Counter &kernelWritesCtr_{stats.counter("kernel_writes")};
    MainMemory memory_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;
    FlatAddrMap<DirEntry> directory_;
    std::vector<RecordId> coreCounter_;
    std::vector<ThreadId> coreThread_;

  public:
    /** Bind the thread currently running on @p core (per-core arcs name
     *  threads, not cores). */
    void bindThread(CoreId core, ThreadId tid);
};

} // namespace paralog

#endif // PARALOG_MEM_MEMORY_SYSTEM_HPP
