/**
 * @file
 * Per-application-thread event capture + order capture component
 * (left half of Figure 2): assigns record IDs, filters events according
 * to the lifeguard's registered interests (the "event mux" of Figure 1),
 * applies transitive arc reduction, and manages the log buffer shared
 * with the lifeguard core.
 */

#ifndef PARALOG_CAPTURE_CAPTURE_UNIT_HPP
#define PARALOG_CAPTURE_CAPTURE_UNIT_HPP

#include <atomic>
#include <cstdint>
#include <deque>

#include "app/event.hpp"
#include "capture/compressor.hpp"
#include "capture/journal.hpp"
#include "capture/log_buffer.hpp"
#include "capture/reduction.hpp"
#include "capture/trace.hpp"
#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace paralog {

/**
 * Which events the lifeguard registered for. Anything else is dropped at
 * capture time (it still retires and consumes a record ID).
 */
struct EventFilter
{
    bool regOps = true;    ///< kMovRR/kMovImm/kAlu (propagation lifeguards)
    bool loads = true;
    bool stores = true;
    bool jumps = true;
    bool heapOnly = false; ///< restrict loads/stores to the heap arena
    AddrRange heapArena{};

    bool wants(const EventRecord &rec) const;
};

class CaptureUnit
{
  public:
    CaptureUnit(ThreadId tid, const SimConfig &cfg, EventFilter filter)
        : tid_(tid), filter_(filter), buf_(cfg.logBufferBytes)
    {
    }

    ThreadId tid() const { return tid_; }

    /** True if there is room for the next record (producer may proceed). */
    bool canAppend() const { return !buf_.full(); }

    /**
     * Append a retired event. Applies the event filter and arc reduction;
     * returns true if a record was actually written to the stream.
     * Arc reduction runs even for filtered-out records (the hardware sees
     * all coherence traffic regardless of lifeguard interests). A
     * captured record is moved out of @p ev.record into the log buffer;
     * the rest of @p ev is left as it was.
     */
    bool append(AppEvent &&ev);

    /** Append a ConflictAlert record (broadcast insertion, never blocks). */
    void appendCa(EventRecord &&rec);

    /** Attach arcs discovered at TSO store-drain time to a pending record. */
    void attachArcs(RecordId rid, const std::vector<RawArc> &arcs);

    /** Annotate a pending load with a consume-version tag (TSO). Returns
     *  false when no version is needed: either the load was already
     *  consumed, so its handler read the pre-overwrite metadata, which
     *  is the versioned value; or it already carries this tag (README,
     *  "TSO versioning protocol"). */
    bool annotateConsume(RecordId rid, const VersionTag &v);

    /** Insert a produce-version record before a pending store (TSO). */
    void insertProduceBefore(RecordId store_rid, const VersionTag &v,
                             Addr addr, std::uint8_t size);

    /** TSO visibility: records with rid >= limit are hidden from the
     *  consumer. kInvalidRecord = everything visible. */
    void
    setVisibilityLimit(RecordId limit)
    {
        visLimit_ = limit;
        if (journal_)
            journal_->onVisibilityLimit(tid_, limit);
    }
    RecordId visibilityLimit() const { return visLimit_; }

    /** Producer-side retire counter mirror (count of retired micro-ops). */
    void
    setRetired(RecordId retired)
    {
        retired_ = retired;
        if (journal_)
            journal_->onRetire(tid_, retired);
    }
    RecordId retired() const { return retired_; }

    // ---- consumer interface (order-enforcing component reads these) ----

    const EventRecord *
    peek() const
    {
        return ring_ ? ring_->front() : buf_.peek(visLimit_);
    }
    EventRecord
    pop()
    {
        if (ring_) {
            EventRecord rec = std::move(*ring_->front());
            ring_->pop();
            return rec;
        }
        return buf_.pop();
    }
    /** Discard the head after in-place processing (batch delivery). */
    void
    dropFront()
    {
        if (ring_)
            ring_->pop();
        else
            buf_.dropFront();
    }
    bool consumerEmpty() const { return peek() == nullptr; }

    /**
     * Largest "done count" the consumer may publish once it has drained
     * everything currently visible: all rids below this value either
     * never produced a record or have been consumed.
     */
    RecordId progressCeiling() const;

    /** The log-buffer-side ceiling (the serial progressCeiling
     *  formula), regardless of ring mode. In ring mode this is the
     *  producer-side input to setCeilingBound. */
    RecordId bufferCeiling() const;

    // ---- concurrent (ring) hand-off mode --------------------------------

    /**
     * Switch the consumer face to a cross-thread SPSC ring. The
     * producer moves sealed records out of the log buffer into the
     * ring (publishing batches atomically) and advances the ceiling
     * bound; the consumer side of peek/pop/dropFront/progressCeiling
     * then reads the ring only. Producer-side mutators
     * (append/attachArcs/annotate/...) keep operating on the log
     * buffer and stay producer-thread-only.
     */
    void attachRing(SpscRing<EventRecord> *ring) { ring_ = ring; }

    /**
     * The ring hand-off of both host-parallel engines: move head
     * records into the ring while @p sealed(head) says nothing can
     * still mutate them, make the batch visible with one publish, then
     * advance the ceiling bound. The engine owns the seal test — live
     * computes it online from producer state (visible, and appended at
     * or below the TSO store-buffer watermark), replay reads it from
     * its publication plan.
     *
     * Records sealed while the ring is full spill to an unbounded
     * producer-side overflow queue (FIFO with the ring) so the seal
     * never blocks the producer. Producer-thread-only.
     */
    template <typename Sealed>
    void
    publishSealed(Sealed &&sealed)
    {
        // Overflowed records are already sealed — they only ever wait
        // for ring space, and must go first to keep the ring
        // rid-ordered.
        while (!overflow_.empty() &&
               ring_->tryPush(std::move(overflow_.front())))
            overflow_.pop_front();
        while (const EventRecord *head = buf_.peek()) {
            if (!sealed(*head))
                break;
            EventRecord rec = buf_.pop();
            if (!overflow_.empty() || !ring_->tryPush(std::move(rec)))
                overflow_.push_back(std::move(rec));
        }
        ring_->publish();
        // Publish records *before* raising the bound (release): a
        // consumer that acquires the new bound and finds the ring empty
        // must be guaranteed every record below it was really handed
        // over.
        RecordId bound = bufferCeiling();
        if (!overflow_.empty() && overflow_.front().rid < bound)
            bound = overflow_.front().rid;
        setCeilingBound(bound);
    }

    /** True once every captured record has been handed to the ring
     *  (log buffer and overflow both empty). Producer-thread-only. */
    bool allPublished() const { return buf_.empty() && overflow_.empty(); }

    /** Sealed-but-unpublished records waiting for ring space
     *  (producer-side; watchdog signature input). */
    std::size_t overflowSize() const { return overflow_.size(); }

    /** Current publication frontier (acquire; either side may read). */
    RecordId
    ceilingBound() const
    {
        return ceilingBound_.load(std::memory_order_acquire);
    }

    /**
     * Producer-side "stream drained" test for syscall delayed
     * advertising: no *visible* record is still waiting in the log
     * buffer. In serial mode this equals consumerEmpty(); in ring mode
     * it deliberately ignores the ring and overflow (records there are
     * sealed — the syscall's consumer-side ordering is enforced by the
     * CA arc chain, not by producer-side draining) and never touches
     * consumer-face state, so the producer thread may call it freely.
     */
    bool drainedForSyscall() const { return buf_.peek(visLimit_) == nullptr; }

    /**
     * Ring-mode progress bound: a consumer that has drained the ring
     * may publish progress up to this value. The producer advances it
     * (release) only after publishing every ring record it covers, and
     * progressCeiling() reads it (acquire) *before* looking at the ring
     * head — so a bound observed together with an empty ring really
     * means every record below the bound was handed over. Write-on-
     * change: an unmoved bound is not stored again, so the consumer's
     * cached copy of the line survives producer passes that publish
     * nothing.
     */
    void
    setCeilingBound(RecordId bound)
    {
        if (bound == lastCeilingBound_)
            return;
        lastCeilingBound_ = bound;
        ceilingBound_.store(bound, std::memory_order_release);
    }

    LogBuffer &buffer() { return buf_; }
    ArcReducer &reducer() { return reducer_; }
    StreamCompressor &compressor() { return compressor_; }

    /** Tee every captured record into @p sink (offline validation). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /** Journal every producer-side stream mutation (record/replay). */
    void setJournal(CaptureJournal *journal) { journal_ = journal; }

    // ---- replay interface (core/replay.cpp applies journal ops) ----

    /** Re-apply a journalled append: the record is final as of append
     *  time (filter and arc reduction already ran when it was
     *  recorded), so it goes straight into the log buffer. Counter
     *  bookkeeping mirrors the live append paths (@p is_ca selects the
     *  appendCa accounting). */
    void
    replayAppend(EventRecord &&rec, std::uint32_t charged_bytes,
                 bool is_ca = false)
    {
        if (is_ca) {
            caRecordsCtr_.inc();
        } else {
            recordsCtr_.inc();
            if (!rec.arcs().empty())
                recordsWithArcsCtr_.inc();
        }
        buf_.append(std::move(rec), charged_bytes);
    }

    /** Re-apply journalled drain-time arcs. When the record was
     *  filtered out at capture, the arcs were carried into the next
     *  captured record — whose journalled append already contains them
     *  — so a missing record means nothing to do here. */
    void
    replayAttachArcs(RecordId rid, const std::vector<DepArc> &kept)
    {
        if (EventRecord *rec = buf_.findByRid(rid)) {
            std::vector<DepArc> &arcs = rec->mutableArcs();
            arcs.insert(arcs.end(), kept.begin(), kept.end());
        }
    }

    StatSet stats{"capture"};

  private:
    ThreadId tid_;
    EventFilter filter_;
    LogBuffer buf_;
    ArcReducer reducer_;
    StreamCompressor compressor_;
    TraceSink *trace_ = nullptr;
    CaptureJournal *journal_ = nullptr;
    std::vector<std::uint8_t> codecScratch_; ///< journalled codec bytes
    RecordId retired_ = 0;
    RecordId visLimit_ = kInvalidRecord;
    /// Concurrent hand-off (attachRing): consumer face reads the ring.
    SpscRing<EventRecord> *ring_ = nullptr;
    /// Ring-mode progress bound, producer-published (release) and read
    /// by progressCeiling() (acquire) before the ring head.
    std::atomic<RecordId> ceilingBound_{0};
    /// Producer-private copy of the last value stored to ceilingBound_.
    RecordId lastCeilingBound_ = 0;
    /// Sealed records that found the ring full. Drained ahead of the
    /// log buffer on the next publishSealed so the ring stays FIFO by
    /// rid. Producer-thread-only.
    std::deque<EventRecord> overflow_;
    /// Arcs that survived reduction but whose record was filtered out;
    /// re-attached to the next captured record (conservative ordering).
    std::vector<DepArc> pendingArcsCarry_;

    Counter &filteredCtr_{stats.counter("filtered")};
    Counter &recordsCtr_{stats.counter("records")};
    Counter &recordsWithArcsCtr_{stats.counter("records_with_arcs")};
    Counter &caRecordsCtr_{stats.counter("ca_records")};
    Counter &produceVersionsCtr_{stats.counter("produce_versions")};
    Counter &consumeVersionsCtr_{stats.counter("consume_versions")};
    Counter &consumeDuplicatesCtr_{stats.counter("consume_duplicates")};
};

} // namespace paralog

#endif // PARALOG_CAPTURE_CAPTURE_UNIT_HPP
