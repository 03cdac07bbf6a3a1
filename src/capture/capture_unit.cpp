#include "capture/capture_unit.hpp"

#include "common/logging.hpp"

namespace paralog {

bool
EventFilter::wants(const EventRecord &rec) const
{
    switch (rec.type) {
      case EventType::kNone:
        return false;
      case EventType::kMovRR:
      case EventType::kMovImm:
      case EventType::kAlu:
        return regOps;
      case EventType::kJump:
        return jumps;
      case EventType::kLoad:
      case EventType::kStore: {
        if (rec.wrapper)
            return false; // trusted allocator internals: never checked
        bool wanted = (rec.type == EventType::kLoad) ? loads : stores;
        if (!wanted)
            return false;
        if (heapOnly && !heapArena.contains(rec.addr))
            return false;
        return true;
      }
      default:
        return true; // high-level / bookkeeping records always captured
    }
}

bool
CaptureUnit::append(AppEvent &&ev)
{
    // Arc reduction state must advance even if the record is filtered:
    // the order-capturing hardware operates below the event mux. Arcs on
    // filtered records are then re-attached to the next captured record,
    // so no ordering information is lost.
    bool wanted = filter_.wants(ev.record);
    if (!wanted && ev.arcs.empty()) {
        // Common fast path (e.g. AddrCheck's heap-only filter): nothing
        // to capture and no arcs to carry — skip the record copy and
        // the arc-list staging entirely.
        filteredCtr_.inc();
        return false;
    }

    std::vector<DepArc> arcs = std::move(pendingArcsCarry_);
    pendingArcsCarry_.clear();
    for (const RawArc &raw : ev.arcs) {
        if (reducer_.shouldRecord(raw))
            arcs.push_back(DepArc{raw.tid, raw.rid});
    }

    if (!wanted) {
        // Carry surviving arcs forward so a later captured record
        // still enforces the ordering (conservative).
        pendingArcsCarry_ = std::move(arcs);
        filteredCtr_.inc();
        return false;
    }

    // Finish the record where the interpreter built it; the one move
    // below places it in the log buffer.
    EventRecord &rec = ev.record;
    rec.setArcs(std::move(arcs));
    recordsCtr_.inc();
    if (!rec.arcs().empty())
        recordsWithArcsCtr_.inc();
    std::vector<std::uint8_t> *payload = nullptr;
    if (journal_) {
        codecScratch_.clear();
        payload = &codecScratch_;
    }
    std::uint32_t bytes = compressor_.encode(rec, payload);
    if (trace_)
        trace_->append(rec);
    if (journal_)
        journal_->onAppend(tid_, rec, bytes, codecScratch_);
    buf_.append(std::move(rec), bytes);
    return true;
}

void
CaptureUnit::appendCa(EventRecord &&rec)
{
    rec.tid = tid_;
    // CA records are injected by the broadcast mechanism between retired
    // records; they reuse the current retire counter as their rid (the
    // next retired micro-op will share it, which is harmless: progress
    // semantics only require monotonicity).
    rec.rid = retired_;
    caRecordsCtr_.inc();
    std::vector<std::uint8_t> *payload = nullptr;
    if (journal_) {
        codecScratch_.clear();
        payload = &codecScratch_;
    }
    std::uint32_t bytes = compressor_.encode(rec, payload);
    if (trace_)
        trace_->append(rec);
    if (journal_)
        journal_->onAppendCa(tid_, rec, bytes, codecScratch_);
    buf_.append(std::move(rec), bytes);
}

void
CaptureUnit::attachArcs(RecordId rid, const std::vector<RawArc> &arcs)
{
    EventRecord *rec = buf_.findByRid(rid);
    std::vector<DepArc> kept;
    for (const RawArc &raw : arcs) {
        if (reducer_.shouldRecord(raw))
            kept.push_back(DepArc{raw.tid, raw.rid});
    }
    if (kept.empty())
        return;
    if (journal_)
        journal_->onAttachArcs(tid_, rid, kept);
    if (!rec) {
        // The store's record was filtered out at capture; carry the arcs
        // to the next captured record.
        for (const DepArc &a : kept)
            pendingArcsCarry_.push_back(a);
        return;
    }
    std::vector<DepArc> &rec_arcs = rec->mutableArcs();
    rec_arcs.insert(rec_arcs.end(), kept.begin(), kept.end());
}

bool
CaptureUnit::annotateConsume(RecordId rid, const VersionTag &v)
{
    // Journal the attempt, not the outcome: replay re-runs the same
    // duplicate/already-consumed checks against identical buffer state.
    if (journal_)
        journal_->onAnnotateConsume(tid_, rid, v);
    EventRecord *rec = buf_.findByRidPreferMemAccess(rid);
    if (!rec)
        return false; // already consumed: reader saw pre-write metadata
    if (rec->consumesVersion && rec->version() == v) {
        // A line-crossing store racing a line-crossing load raises one
        // version request per cache line with the identical tag; a
        // second produce record for it would double-produce the entry.
        consumeDuplicatesCtr_.inc();
        return false;
    }
    rec->consumesVersion = true;
    rec->setVersion(v);
    consumeVersionsCtr_.inc();
    return true;
}

void
CaptureUnit::insertProduceBefore(RecordId store_rid, const VersionTag &v,
                                 Addr addr, std::uint8_t size)
{
    if (journal_)
        journal_->onInsertProduce(tid_, store_rid, v, addr, size);
    EventRecord rec;
    rec.type = EventType::kProduceVersion;
    rec.tid = tid_;
    // The produce record shares the store's rid: it may be placed after
    // a same-rid CA record (CA records reuse the retire counter), and a
    // smaller rid there would break the sorted-by-rid invariant every
    // lower_bound-based buffer lookup depends on. Equal-rid sharing is
    // already the CA convention; findStoreByRid disambiguates by type.
    rec.rid = store_rid;
    rec.addr = addr;
    rec.size = size;
    rec.setVersion(v);
    // The consuming lifeguard core matches this against the store's own
    // record to learn whether the writer's handler ran before the
    // consumer (read-side-writer rule).
    rec.value = store_rid;
    // The snapshot must observe every remote handler the store itself
    // is ordered after: the produce record inherits the store's
    // drain-time arcs (delivery is in order, so checking them one
    // record early enforces the same waits).
    if (EventRecord *store = buf_.findStoreByRid(store_rid))
        rec.setArcs(store->takeArcs());
    buf_.insertBefore(store_rid, std::move(rec));
    produceVersionsCtr_.inc();
}

RecordId
CaptureUnit::progressCeiling() const
{
    if (ring_) {
        // Read order matters: load the bound *before* inspecting the
        // ring head. Records published after the bound load carry
        // rids >= the bound at the time it was computed, so a stale
        // (smaller) bound is always safe, never stale-large.
        RecordId bound = ceilingBound_.load(std::memory_order_acquire);
        const EventRecord *front = ring_->front();
        if (front && front->rid < bound)
            return front->rid;
        return bound;
    }
    return bufferCeiling();
}

RecordId
CaptureUnit::bufferCeiling() const
{
    if (const EventRecord *front = buf_.peek(kInvalidRecord)) {
        RecordId ceil = front->rid;
        if (visLimit_ != kInvalidRecord && visLimit_ < ceil)
            ceil = visLimit_;
        return ceil;
    }
    if (visLimit_ != kInvalidRecord)
        return std::min(visLimit_, retired_);
    return retired_;
}

} // namespace paralog
