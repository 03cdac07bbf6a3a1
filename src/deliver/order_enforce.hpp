/**
 * @file
 * Per-lifeguard-thread order-enforcing component (Figure 4(b)).
 *
 * Decides whether the next record in the thread's event stream may be
 * delivered: dependence arcs must be satisfied in the progress table,
 * ConflictAlert barriers must be respected (both the issuer-side and
 * waiter-side halves), and TSO consume-version records must have their
 * versioned metadata available.
 */

#ifndef PARALOG_DELIVER_ORDER_ENFORCE_HPP
#define PARALOG_DELIVER_ORDER_ENFORCE_HPP

#include <functional>

#include "capture/capture_unit.hpp"
#include "common/stats.hpp"
#include "deliver/ca_manager.hpp"
#include "deliver/progress_table.hpp"
#include "deliver/range_table.hpp"

namespace paralog {

enum class DeliverStatus : std::uint8_t
{
    kDelivered,    ///< out filled with a record
    kEmpty,        ///< stream empty: waiting for the application
    kDepStall,     ///< waiting for a dependence arc
    kCaStall,      ///< waiting at a ConflictAlert barrier
    kVersionStall, ///< waiting for versioned metadata (TSO)
};

const char *toString(DeliverStatus st);

class OrderEnforcer
{
  public:
    using VersionAvailable = std::function<bool(const VersionTag &)>;

    OrderEnforcer(ThreadId tid, CaptureUnit &unit, ProgressTable &progress,
                  CaManager &ca, VersionAvailable version_available);

    struct Delivery
    {
        EventRecord rec;
        bool racesSyscall = false;
    };

    DeliverStatus tryDeliver(Delivery &out);

    /** One record of a delivery batch, borrowed from the log buffer:
     *  process in place, then commitDelivered(). */
    struct BatchItem
    {
        const EventRecord *rec = nullptr;
        bool racesSyscall = false;
    };

    /**
     * Batch delivery fast path: deliver the next record *without*
     * removing it from the stream. The caller processes @p out.rec in
     * place, calls commitDelivered(), and keeps calling with
     * @p continuation = true to drain consecutive records in one
     * LifeguardCore::step, amortizing per-record step dispatch, retry
     * bookkeeping and progress publishes.
     *
     * The check logic is identical to tryDeliver in both modes;
     * @p continuation = true only suppresses stall accounting, because
     * a continuation stall is not a modelled stall: it merely ends the
     * batch, and the next step() re-runs the authoritative check at
     * exactly the simulated time the unbatched engine would have
     * reached the record. The caller guarantees (via the platform's
     * solo-horizon rule, see LifeguardCore::step) that no other
     * simulated actor runs inside the batch window, so every check
     * observes exactly the state the unbatched engine would have seen.
     */
    DeliverStatus tryDeliverBatch(BatchItem &out, bool continuation);

    /** Drop the record last delivered by tryDeliverBatch. */
    void commitDelivered();

    // Wait-state diagnostics for the platform's progress watchdog: the
    // last authoritative (non-continuation) delivery status, and how
    // many consecutive retries have stalled on the same front record.
    DeliverStatus lastStatus() const { return lastStatus_; }
    std::uint64_t sameRecordStallRetries() const { return stallRetries_; }

    StatSet stats{"enforce"};

  private:
    bool issuerBarrierSatisfied(const CaBroadcast &b) const;
    void noteWaiterPassed(std::uint64_t seq);
    void noteIssuerDelivered(std::uint64_t seq);

    ThreadId tid_;
    CaptureUnit &unit_;
    ProgressTable &progress_;
    CaManager &ca_;
    VersionAvailable versionAvailable_;
    RangeTable ranges_;
    Counter &deliveredCtr_{stats.counter("delivered")};
    Counter &depStallsCtr_{stats.counter("dep_stalls")};
    Counter &caWaitCtr_{stats.counter("ca_wait_cycles")};
    Counter &caIssuerCtr_{stats.counter("ca_issuer_stalls")};
    Counter &versionStallsCtr_{stats.counter("version_stalls")};
    Counter &syscallRacesCtr_{stats.counter("syscall_races")};
    Histogram &stallGapHist_{stats.histogram("stall_gap")};

    DeliverStatus lastStatus_ = DeliverStatus::kEmpty;
    RecordId stallRid_ = kInvalidRecord;
    std::uint64_t stallRetries_ = 0;

    /// After consuming a CA record we stall until the issuer's lifeguard
    /// processes the associated high-level event.
    bool waitingForIssuer_ = false;
    std::uint64_t waitSeq_ = 0;
    ThreadId waitIssuer_ = kInvalidThread;
    RecordId waitIssuerRid_ = kInvalidRecord;
};

} // namespace paralog

#endif // PARALOG_DELIVER_ORDER_ENFORCE_HPP
