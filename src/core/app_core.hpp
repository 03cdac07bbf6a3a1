/**
 * @file
 * One simulated application core: executes its thread via the
 * interpreter, appends retired events to the thread's capture unit, and
 * triggers ConflictAlert broadcasts for subscribed high-level events.
 */

#ifndef PARALOG_CORE_APP_CORE_HPP
#define PARALOG_CORE_APP_CORE_HPP

#include <functional>
#include <memory>

#include "app/interpreter.hpp"
#include "app/thread_context.hpp"
#include "capture/capture_unit.hpp"
#include "core/run_stats.hpp"

namespace paralog {

class AppCore
{
  public:
    /**
     * ConflictAlert broadcast callback (implemented by the platform):
     * inserts CA records into the other threads' streams, annotates the
     * issuer's high-level record with the broadcast sequence, and
     * returns the ack latency charged to this core.
     */
    using CaBroadcastFn = std::function<Cycle(
        ThreadId tid, RecordId rid, HighLevelKind kind,
        const AddrRange &range)>;

    AppCore(CoreId core, std::unique_ptr<ThreadContext> tc,
            CaptureUnit *capture, Interpreter &interp, MemorySystem &mem,
            const SimConfig &cfg, bool monitoring_enabled,
            CaBroadcastFn ca_broadcast);

    /** Execute one step at @p now; updates busyUntil and stats. */
    void step(Cycle now);

    bool active() const { return !finished_; }
    Cycle busyUntil = 0;

    ThreadContext &tc() { return *tc_; }
    const ThreadContext &tc() const { return *tc_; }
    CaptureUnit *capture() { return capture_; }
    CoreId core() const { return core_; }

    AppThreadStats stats;

  private:
    CoreId core_;
    std::unique_ptr<ThreadContext> tc_;
    CaptureUnit *capture_; ///< null when unmonitored
    Interpreter &interp_;
    Interpreter::StepOutcome out_; ///< scratch, reused across steps
    MemorySystem &mem_;
    const SimConfig &cfg_;
    bool monitoringEnabled_;
    CaBroadcastFn caBroadcast_;
    bool finished_ = false;
};

} // namespace paralog

#endif // PARALOG_CORE_APP_CORE_HPP
