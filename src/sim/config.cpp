#include "sim/config.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace paralog {

SimConfig
SimConfig::forAppThreads(std::uint32_t app_threads)
{
    SimConfig cfg;
    cfg.appThreads = app_threads;

    cfg.l1d = CacheParams{64 * 1024, 64, 4, 2};

    // Table 1: shared L2 of 2/4/8 MB as the core count grows (4/8/16
    // cores); 8-way, 6-cycle access.
    std::uint32_t cores = 2 * app_threads;
    std::uint64_t l2_size;
    if (cores <= 4)
        l2_size = 2ULL * 1024 * 1024;
    else if (cores <= 8)
        l2_size = 4ULL * 1024 * 1024;
    else
        l2_size = 8ULL * 1024 * 1024;
    cfg.l2 = CacheParams{l2_size, 64, 8, 6};
    return cfg;
}

std::uint32_t
SimConfig::totalCores() const
{
    switch (mode) {
      case MonitorMode::kNoMonitoring:
        return appThreads;
      case MonitorMode::kTimesliced:
        return 2;
      case MonitorMode::kParallel:
        return 2 * appThreads;
    }
    panic("unreachable monitor mode");
}

std::string
SimConfig::describe() const
{
    std::ostringstream os;
    os << "cores: " << totalCores() << " (mode " << toString(mode)
       << ", " << appThreads << " app threads), in-order scalar, 1 GHz\n"
       << "L1-D: " << l1d.sizeBytes / 1024 << "KB, " << l1d.lineBytes
       << "B line, " << l1d.assoc << "-way, " << l1d.hitLatency
       << "-cycle, LRU\n"
       << "L2:   " << l2.sizeBytes / (1024 * 1024) << "MB, " << l2.lineBytes
       << "B line, " << l2.assoc << "-way, " << l2.hitLatency
       << "-cycle, shared inclusive\n"
       << "Memory: " << memLatency << "-cycle latency\n"
       << "Log buffer: " << logBufferBytes / 1024
       << "KB (1B per compressed record)\n"
       << "Memory model: " << toString(memoryModel)
       << ", dependence tracking: " << toString(depTracking) << "\n"
       << "Accelerators: IT=" << accel.inheritanceTracking
       << " IF=" << accel.idempotentFilter << " M-TLB=" << accel.metadataTlb
       << "\n";
    return os.str();
}

const char *
toString(MemoryModel m)
{
    switch (m) {
      case MemoryModel::kSC:
        return "SC";
      case MemoryModel::kTSO:
        return "TSO";
    }
    return "?";
}

const char *
toString(DepTracking d)
{
    switch (d) {
      case DepTracking::kPerBlock:
        return "per-block (aggressive)";
      case DepTracking::kPerCore:
        return "per-core (limited)";
    }
    return "?";
}

const char *
toString(MonitorMode m)
{
    switch (m) {
      case MonitorMode::kNoMonitoring:
        return "no-monitoring";
      case MonitorMode::kTimesliced:
        return "timesliced";
      case MonitorMode::kParallel:
        return "parallel";
    }
    return "?";
}

} // namespace paralog
