/**
 * @file
 * Central simulation configuration. Defaults model Table 1 of the paper:
 * in-order 1 GHz scalar cores, private 64 KB L1s, shared inclusive L2
 * (2/4/8 MB for 4/8/16 cores), 90-cycle main memory, 64 KB log buffer at
 * 1 byte per compressed record.
 */

#ifndef PARALOG_SIM_CONFIG_HPP
#define PARALOG_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace paralog {

/** Memory consistency model of the simulated application cores. */
enum class MemoryModel
{
    kSC,  ///< Sequential Consistency
    kTSO, ///< Total Store Ordering (per-core store buffers)
};

/**
 * How dependence timestamps are produced at the application side
 * (paper section 5.1 and Figure 8).
 */
enum class DepTracking
{
    /// FDR-style: per-L1-cache-block (tid, rid) tags — "aggressive
    /// dependence reduction".
    kPerBlock,
    /// Cheaper variant: the producing core's *current* retire counter is
    /// sent instead — "limited reduction", conservative arcs.
    kPerCore,
};

/** Monitoring arrangement (Figure 6). */
enum class MonitorMode
{
    kNoMonitoring, ///< Application alone, no lifeguard.
    kTimesliced,   ///< All app threads timesliced on one core; one
                   ///< sequential lifeguard core.
    kParallel,     ///< ParaLog: one lifeguard thread per app thread.
};

/** Geometry/latency of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t assoc = 4;
    Cycle hitLatency = 2;
};

/** Hardware accelerator enables and sizing (paper sections 2 and 4). */
struct AccelParams
{
    bool inheritanceTracking = true; ///< IT
    bool idempotentFilter = true;    ///< IF
    bool metadataTlb = true;         ///< M-TLB

    std::uint32_t ifEntries = 64;   ///< IF cache entries (LRU)
    std::uint32_t mtlbEntries = 64; ///< M-TLB entries (LRU)

    /// Delayed-advertising force-flush threshold: accelerator entries
    /// whose record ID lags the last processed record by more than this
    /// are flushed to refresh the advertised progress (section 4.2).
    /// Stale IT rows (registers loaded once and parked) would otherwise
    /// pin the published progress and stall every remote arc.
    std::uint64_t advertiseThreshold = 64;
};

/** Top-level simulation configuration. */
struct SimConfig
{
    /// Number of application threads (1, 2, 4, or 8 in the paper).
    std::uint32_t appThreads = 1;

    MonitorMode mode = MonitorMode::kParallel;
    MemoryModel memoryModel = MemoryModel::kSC;
    DepTracking depTracking = DepTracking::kPerBlock;

    /// Latency of a two-source ALU operation. The evaluated benchmarks
    /// are floating-point codes; on an in-order scalar core FP add/mul
    /// latency dominates the compute kernels.
    Cycle aluLatency = 3;

    CacheParams l1d; ///< 64 KB, 4-way, 2 cycles
    CacheParams l2;  ///< sized by cores, 8-way, 6 cycles
    Cycle memLatency = 90;

    /// Log buffer capacity in bytes, assuming ~1 B per compressed record.
    std::uint64_t logBufferBytes = 64 * 1024;

    AccelParams accel;

    /// Issue ConflictAlert broadcasts from the malloc/free wrapper
    /// library and around system calls (section 5.4). Disabling this is
    /// *unsound* with accelerators; a test demonstrates the corruption.
    bool conflictAlerts = true;

    /// TSO store buffer depth (entries) and drain delay (cycles/store).
    std::uint32_t storeBufferEntries = 8;
    Cycle storeDrainDelay = 6;

    /// Timeslicing quantum (retired instructions) and context-switch cost.
    std::uint64_t timesliceQuantum = 10000;
    Cycle contextSwitchCost = 1000;

    /// Cycles a timesliced thread spins on a held lock / unreleased
    /// barrier before the scheduler preempts it. SPLASH-2 style spin
    /// synchronization burns most of a quantum when the holder is not
    /// running, which is why the paper's TIMESLICED bars grow with the
    /// thread count.
    Cycle timesliceSpinOnBlock = 4000;

    /// Cycles between retries when a core is blocked on coarse events
    /// (log full/empty). Models periodic re-checking.
    Cycle retryInterval = 16;

    /// Cycles between progress-table re-reads while stalled on a
    /// dependence arc; the progress entries live in cache lines, so the
    /// re-check is cheap and fine-grained (Figure 4(b)).
    Cycle depRetryInterval = 4;

    /// Dependence-stall retries before the stall-flush rule of section
    /// 4.2 kicks in. Flushing immediately would forfeit accelerator
    /// state on every brief stall; the flush only matters for breaking
    /// wait cycles, which a short delay preserves.
    std::uint32_t stallFlushAfterRetries = 8;

    /// Deterministic seed for workloads.
    std::uint64_t seed = 1;

    /**
     * Build the paper's configuration for the given number of application
     * threads: 2k cores (k app + k lifeguard), L2 sized 2/4/8 MB for
     * 4/8/16 cores.
     */
    static SimConfig forAppThreads(std::uint32_t app_threads);

    /** Total simulated cores for the configured mode. */
    std::uint32_t totalCores() const;

    /** Human-readable Table-1-style description. */
    std::string describe() const;
};

const char *toString(MemoryModel m);
const char *toString(DepTracking d);
const char *toString(MonitorMode m);

} // namespace paralog

#endif // PARALOG_SIM_CONFIG_HPP
