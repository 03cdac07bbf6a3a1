/**
 * @file
 * Workload interface and registry: synthetic stand-ins for the SPLASH-2
 * and PARSEC benchmarks of Table 1. Each workload reproduces the
 * *monitoring-relevant* behaviour of its namesake — instruction mix,
 * sharing pattern, allocation rate, synchronization style — at a scale
 * that finishes in seconds of host time. The scale is the total
 * application work, set by `paralog --scale` (README, "The `paralog`
 * driver") or PARALOG_SCALE for the bench binaries.
 */

#ifndef PARALOG_WORKLOADS_WORKLOAD_HPP
#define PARALOG_WORKLOADS_WORKLOAD_HPP

#include <memory>
#include <string>
#include <vector>

#include "app/program.hpp"
#include "common/types.hpp"

namespace paralog {

/** Shared addresses and sizing every thread of a workload agrees on. */
struct WorkloadEnv
{
    Addr heapBase = 0;
    std::uint64_t heapBytes = 0;
    Addr globalBase = 0;   ///< scratch region for matrices/grids
    Addr lockBase = 0;     ///< region for lock words (64 B apart)
    Addr barrierBase = 0;  ///< region for barrier words
    std::uint32_t numThreads = 1;
    std::uint64_t scale = 10000; ///< per-thread work units
    std::uint64_t seed = 1;

    Addr lockAddr(unsigned i) const { return lockBase + 64ULL * i; }
    Addr barrierAddr(unsigned i) const { return barrierBase + 64ULL * i; }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    virtual ThreadProgramPtr makeThread(ThreadId tid,
                                        const WorkloadEnv &env) const = 0;
};

enum class WorkloadKind
{
    // SPLASH-2
    kBarnes,
    kLu,
    kOcean,
    kFmm,
    kRadiosity,
    // PARSEC
    kBlackscholes,
    kFluidanimate,
    kSwaptions,
};

std::unique_ptr<Workload> makeWorkload(WorkloadKind kind);
const char *toString(WorkloadKind kind);

/** All eight benchmarks, in the paper's Figure 6 order. */
const std::vector<WorkloadKind> &allWorkloads();

} // namespace paralog

#endif // PARALOG_WORKLOADS_WORKLOAD_HPP
