/**
 * @file
 * Per-thread event stream buffer: the paper's circular log buffer held in
 * the last-level cache (64 KB, ~1 byte per compressed record). When the
 * buffer is full the application core stalls; when empty the lifeguard
 * core stalls.
 *
 * The simulator keeps each record as one 64-byte EventRecord in a
 * std::deque, and a full 64 KB stream can hold tens of thousands of
 * them: records move in (append) and are read in place (peek), never
 * copied.
 *
 * Under TSO a visibility limit hides records at or beyond the oldest
 * undrained store so produce-version annotations can still be inserted
 * in front of pending store records (section 5.5).
 */

#ifndef PARALOG_CAPTURE_LOG_BUFFER_HPP
#define PARALOG_CAPTURE_LOG_BUFFER_HPP

#include <cstdint>
#include <deque>

#include "app/event.hpp"
#include "common/types.hpp"

namespace paralog {

class LogBuffer
{
  public:
    explicit LogBuffer(std::uint64_t capacity_bytes)
        : capacityBytes_(capacity_bytes)
    {
    }

    /** Append at the tail. Always succeeds; producers must check full()
     *  first (ConflictAlert insertion may transiently overflow).
     *  @param charged_bytes modelled compressed size; 0 = use the
     *         record's static size table */
    void append(EventRecord &&rec, std::uint32_t charged_bytes = 0);

    bool full() const { return bytes_ >= capacityBytes_; }
    bool empty() const { return records_.empty(); }
    std::size_t size() const { return records_.size(); }
    std::uint64_t bytes() const { return bytes_; }

    /**
     * The oldest record whose rid is below @p vis_limit, or nullptr.
     * Pass kInvalidRecord for "everything visible".
     */
    const EventRecord *peek(RecordId vis_limit = kInvalidRecord) const;

    /** Remove and return the head (must be visible per caller's check). */
    EventRecord pop();

    /**
     * Batch-pop half of the delivery fast path: the consumer processes
     * the head in place via peek() and then discards it. Unlike pop()
     * no record is moved out: draining N records reads N cache lines
     * (one per 64-byte record), frees the few cold blocks among them
     * and returns one deque node per 8 records to the allocator.
     */
    void dropFront();

    /** Find a pending record by rid (TSO consume-version annotation). */
    EventRecord *findByRid(RecordId rid);

    /** Find the pending *store* record with exactly @p rid, skipping
     *  same-rid bookkeeping records (CA records reuse the retire
     *  counter as their rid). */
    EventRecord *findStoreByRid(RecordId rid);

    /** Find the pending record with exactly @p rid, preferring a
     *  memory-access record when several share the rid (consume-version
     *  annotations must land on the racing load, not on a CA record
     *  that borrowed its rid; a non-access match is still returned so
     *  sync/bookkeeping readers take the discard path). */
    EventRecord *findByRidPreferMemAccess(RecordId rid);

    /**
     * Insert @p rec as close as possible before the pending store with
     * id @p before_rid (TSO produce-version records): directly before
     * the exact store record when it is still pending, otherwise before
     * the first record with rid >= @p before_rid, otherwise at the tail
     * (the store was filtered out at capture and everything pending
     * precedes it — the tail still orders the insert before any record
     * the application appends later).
     */
    void insertBefore(RecordId before_rid, EventRecord &&rec);

    /** Total records ever appended (stats). */
    std::uint64_t appended() const { return appended_; }

  private:
    /** First pending record with rid >= @p rid (records are
     *  rid-sorted; every by-rid lookup starts here). */
    std::deque<EventRecord>::iterator firstAtOrAfter(RecordId rid);

    std::deque<EventRecord> records_;
    std::uint64_t capacityBytes_;
    std::uint64_t bytes_ = 0;
    std::uint64_t appended_ = 0;
};

} // namespace paralog

#endif // PARALOG_CAPTURE_LOG_BUFFER_HPP
