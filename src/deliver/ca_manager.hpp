/**
 * @file
 * ConflictAlert broadcast mechanism (sections 4.3 and 5.4).
 *
 * The wrapper library (interpreter expansions) requests a broadcast for
 * configured high-level events. The manager inserts a CA record into the
 * event stream of every *other* running thread and serializes the issuer
 * (modelled ack latency). At the lifeguard side the pair acts as a
 * barrier:
 *   - the issuer's lifeguard may not process the high-level event until
 *     every other lifeguard has consumed all records preceding its CA
 *     record, and
 *   - the other lifeguards, after consuming the CA record (which flushes
 *     accelerator state), may not proceed until the issuer's lifeguard
 *     has processed the high-level event.
 */

#ifndef PARALOG_DELIVER_CA_MANAGER_HPP
#define PARALOG_DELIVER_CA_MANAGER_HPP

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "app/event.hpp"
#include "capture/capture_unit.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {

struct CaBroadcast
{
    std::uint64_t seq = 0;
    ThreadId issuer = kInvalidThread;
    RecordId issuerEventRid = kInvalidRecord;
    HighLevelKind kind = HighLevelKind::kMallocEnd;
    AddrRange range{};
    /// Per-thread rid of the inserted CA record; kInvalidRecord for
    /// threads that had already exited (nothing to wait for).
    std::vector<RecordId> arrivalRid;

    // Retirement bookkeeping.
    std::uint32_t waitersRemaining = 0;
    bool issuerDone = false;
};

class CaManager
{
  public:
    explicit CaManager(std::uint32_t num_threads)
        : numThreads_(num_threads)
    {
    }

    /**
     * Broadcast a ConflictAlert for the high-level event with record id
     * @p issuer_event_rid just appended by @p issuer. Inserts CA records
     * into all other live threads' streams. Returns the modelled
     * acknowledgement latency charged to the issuing application thread.
     */
    Cycle broadcast(ThreadId issuer, RecordId issuer_event_rid,
                    HighLevelKind kind, const AddrRange &range,
                    const std::vector<CaptureUnit *> &units,
                    const std::vector<bool> &thread_alive);

    /**
     * Pointer into the live table; valid only until the next
     * noteWaiterPassed/noteIssuerDelivered (which may retire the
     * entry). Single-threaded callers only — concurrent monitoring
     * uses lookup().
     */
    const CaBroadcast *find(std::uint64_t seq) const;

    /** Copy-out lookup, safe against concurrent retirement. Returns
     *  false when @p seq is not (or no longer) live. */
    bool lookup(std::uint64_t seq, CaBroadcast &out) const;

    /**
     * Re-create a broadcast's barrier bookkeeping from a recorded
     * journal (trace replay). The CA records themselves arrive through
     * the replayed streams; this restores only the live_ entry the
     * order enforcers consult.
     */
    void injectBroadcast(CaBroadcast b);

    /** A waiter lifeguard finished its half of the barrier. */
    void noteWaiterPassed(std::uint64_t seq);

    /** The issuer's lifeguard processed the high-level event. */
    void noteIssuerDelivered(std::uint64_t seq);

    std::size_t
    liveBroadcasts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return live_.size();
    }

    std::uint64_t issued() const { return nextSeq_; }

    StatSet stats{"ca"};

  private:
    std::uint32_t numThreads_;
    std::uint64_t nextSeq_ = 0;
    /// Guards live_ only: broadcasts are issued by the (single)
    /// application/producer side, but the barrier bookkeeping notes
    /// arrive from every lifeguard consumer thread in concurrent mode.
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, CaBroadcast> live_;
    Counter &broadcastsCtr_{stats.counter("broadcasts")};
};

} // namespace paralog

#endif // PARALOG_DELIVER_CA_MANAGER_HPP
