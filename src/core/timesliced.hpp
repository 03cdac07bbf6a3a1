/**
 * @file
 * The TIMESLICED MONITORING baseline of Figure 6: the state of the art
 * before ParaLog. All application threads are timesliced onto a single
 * core and the resulting *sequentially interleaved* event stream is
 * analyzed by one lifeguard core running the sequential accelerators.
 * No dependence arcs or ConflictAlerts are needed — the merged stream is
 * already totally ordered — but neither the application nor the
 * lifeguard enjoys any parallel speedup.
 */

#ifndef PARALOG_CORE_TIMESLICED_HPP
#define PARALOG_CORE_TIMESLICED_HPP

#include <memory>
#include <vector>

#include "app/data_path.hpp"
#include "app/heap.hpp"
#include "app/interpreter.hpp"
#include "app/sync.hpp"
#include "core/lifeguard_core.hpp"
#include "core/platform.hpp"
#include "core/run_stats.hpp"

namespace paralog {

class Timesliced : public PlatformHooks
{
  public:
    explicit Timesliced(PlatformConfig cfg);
    ~Timesliced() override;

    RunResult run();

    bool lifeguardDrained(ThreadId tid) override;

    Lifeguard &lifeguard() { return *lifeguard_; }

  private:
    void stepApp(Cycle now);
    void switchTo(std::uint32_t next, Cycle now);
    std::uint32_t pickNext() const;

    // SerialScheduler hooks (core/serial_scheduler.hpp). The producer
    // is the one core every application thread shares, the only actor
    // besides the lifeguard core (SC, one lifeguard core).
    friend class SerialScheduler;
    bool producersDone() const;
    Cycle nextProducerCycle() const;
    void produce(Cycle now, std::uint64_t lg_steps);
    Cycle soloHorizon() const { return nextProducerCycle(); }
    void afterLgStep(std::uint32_t) {}
    void foldState(SignatureFold &fold, std::uint64_t lg_steps) const;
    void dumpStream(ThreadId) const {}

    PlatformConfig cfg_;
    WorkloadEnv env_;

    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<Heap> heap_;
    LockManager locks_;
    BarrierManager barriers_;
    std::unique_ptr<DataPath> dataPath_;
    std::unique_ptr<Interpreter> interp_;
    Interpreter::StepOutcome stepScratch_; ///< reused across stepApp calls

    std::unique_ptr<Lifeguard> lifeguard_;
    std::unique_ptr<ProgressTable> progress_;
    std::unique_ptr<CaManager> caMgr_;
    VersionStore versions_;
    std::unique_ptr<CaptureUnit> capture_; ///< merged stream
    /// The one sequential lifeguard core (a vector for SerialScheduler).
    std::vector<std::unique_ptr<LifeguardCore>> lgCores_;

    std::vector<std::unique_ptr<ThreadContext>> tcs_;
    std::vector<AppThreadStats> appStats_;
    std::vector<bool> finished_;
    std::uint32_t current_ = 0;
    std::uint64_t quantumLeft_ = 0;
    Cycle appBusyUntil_ = 0;
};

} // namespace paralog

#endif // PARALOG_CORE_TIMESLICED_HPP
