/**
 * @file
 * One simulated lifeguard core: the right half of Figure 2. Pulls
 * records through the order-enforcing component, runs them through the
 * accelerators, executes lifeguard handlers for delivered events, and
 * publishes progress (with delayed advertising) to the shared progress
 * table.
 */

#ifndef PARALOG_CORE_LIFEGUARD_CORE_HPP
#define PARALOG_CORE_LIFEGUARD_CORE_HPP

#include <memory>
#include <vector>

#include "accel/accel_unit.hpp"
#include "core/run_stats.hpp"
#include "deliver/order_enforce.hpp"
#include "lifeguard/lifeguard.hpp"

namespace paralog {

class LifeguardCore
{
  public:
    LifeguardCore(CoreId core, ThreadId tid, const SimConfig &cfg,
                  CaptureUnit &capture, ProgressTable &progress,
                  CaManager &ca, Lifeguard &lifeguard, MemorySystem *mem,
                  VersionStore &versions, std::uint32_t done_records_needed);

    /**
     * Pull and process records. @p batch_horizon is the earliest
     * simulated time any *other* actor (application core, other
     * lifeguard core, pending TSO store drain) can run: the batched
     * delivery fast path keeps draining records only while the running
     * cost stays strictly inside that window, so batching is invisible
     * — every batched record is processed, and every side effect
     * published, in an interval no other core observes. Pass
     * @p batch_horizon = now to disable batching (single-pop step).
     *
     * Returns the number of single-pop steps this call stands for: the
     * records it delivered, or 1 for a stall or empty step. A batch of
     * n records is exactly the n scheduler iterations single-pop
     * delivery would have spent stepping only this core, so the serial
     * scheduler's step count (the journal's stamp) is the same either
     * way.
     */
    std::uint32_t step(Cycle now, Cycle batch_horizon);

    /** All kThreadDone records consumed (timesliced needs several). */
    bool finished() const { return doneSeen_ >= doneNeeded_; }

    /** Print this stream's `stream:`/`wait:`/`front:` lines to stderr,
     *  in every engine's watchdog dump. */
    void dumpState() const;

    Cycle busyUntil = 0;
    LifeguardThreadStats stats;

    AccelUnit &accel() { return accel_; }
    OrderEnforcer &enforcer() { return enforcer_; }
    LgContext &ctx() { return ctx_; }

  private:
    /** Run handlers for a batch of delivered events; returns cycles. */
    Cycle runHandlers(std::vector<LgEvent> &events);
    void publishProgress();
    Cycle maybeStallFlush();
    Cycle handleStallFlush();
    /** Platform-owned halves of the TSO versioning protocol (section
     *  5.5 + read-side-writer rule): guarantee the snapshot exists after
     *  a produce record, discard unconsumed snapshots, and mark
     *  writer-handler completion on the producing store. */
    void enforceVersionProtocol(const EventRecord &rec);

    CoreId core_;
    ThreadId tid_;
    const SimConfig &cfg_;
    CaptureUnit &capture_;
    ProgressTable &progress_;
    Lifeguard &lifeguard_;
    AccelUnit accel_;
    OrderEnforcer enforcer_;
    LgContext ctx_;
    std::uint32_t doneNeeded_;
    std::uint32_t doneSeen_ = 0;
    RecordId lastProcessed_ = 0;
    std::uint64_t emptyStreak_ = 0;
    std::uint64_t stallStreak_ = 0;
    std::uint64_t absorbedTick_ = 0;
    std::vector<LgEvent> events_; ///< scratch, reused across steps
    /// Versions produced by this stream whose producing store record
    /// (identified by rid) has not been processed yet; used to mark
    /// VersionStore entries writerDone (read-side-writer rule).
    std::vector<std::pair<VersionTag, RecordId>> pendingWriterStores_;
};

/**
 * Fill the lifeguard-side columns of @p result the one way every
 * engine reports them: per-core stats, TSO version counters,
 * version-stall retries, and the violation count and distinct-set
 * fingerprint.
 */
void collectLifeguardResult(
    RunResult &result,
    const std::vector<std::unique_ptr<LifeguardCore>> &cores,
    VersionStore &versions, const Lifeguard &lifeguard);

} // namespace paralog

#endif // PARALOG_CORE_LIFEGUARD_CORE_HPP
