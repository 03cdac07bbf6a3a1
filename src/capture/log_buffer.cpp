#include "capture/log_buffer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace paralog {

void
LogBuffer::append(EventRecord &&rec, std::uint32_t charged_bytes)
{
    rec.chargedBytes =
        charged_bytes ? charged_bytes : rec.compressedBytes();
    bytes_ += rec.chargedBytes;
    ++appended_;
    records_.push_back(std::move(rec));
}

const EventRecord *
LogBuffer::peek(RecordId vis_limit) const
{
    if (records_.empty())
        return nullptr;
    const EventRecord &front = records_.front();
    if (vis_limit != kInvalidRecord && front.rid >= vis_limit)
        return nullptr;
    return &front;
}

EventRecord
LogBuffer::pop()
{
    PARALOG_ASSERT(!records_.empty(), "pop from empty log buffer");
    EventRecord rec = std::move(records_.front());
    records_.pop_front();
    PARALOG_ASSERT(bytes_ >= rec.chargedBytes,
                   "log buffer byte accounting underflow");
    bytes_ -= rec.chargedBytes;
    return rec;
}

void
LogBuffer::dropFront()
{
    PARALOG_ASSERT(!records_.empty(), "dropFront from empty log buffer");
    const EventRecord &rec = records_.front();
    PARALOG_ASSERT(bytes_ >= rec.chargedBytes,
                   "log buffer byte accounting underflow");
    bytes_ -= rec.chargedBytes;
    records_.pop_front();
}

std::deque<EventRecord>::iterator
LogBuffer::firstAtOrAfter(RecordId rid)
{
    return std::lower_bound(
        records_.begin(), records_.end(), rid,
        [](const EventRecord &r, RecordId v) { return r.rid < v; });
}

EventRecord *
LogBuffer::findByRid(RecordId rid)
{
    auto it = firstAtOrAfter(rid);
    if (it == records_.end() || it->rid != rid)
        return nullptr;
    return &*it;
}

EventRecord *
LogBuffer::findByRidPreferMemAccess(RecordId rid)
{
    EventRecord *any = nullptr;
    for (auto it = firstAtOrAfter(rid);
         it != records_.end() && it->rid == rid; ++it) {
        if (it->isMemAccess())
            return &*it;
        if (!any)
            any = &*it;
    }
    return any;
}

EventRecord *
LogBuffer::findStoreByRid(RecordId rid)
{
    for (auto it = firstAtOrAfter(rid);
         it != records_.end() && it->rid == rid; ++it) {
        if (it->type == EventType::kStore)
            return &*it;
    }
    return nullptr;
}

void
LogBuffer::insertBefore(RecordId before_rid, EventRecord &&rec)
{
    auto pos = firstAtOrAfter(before_rid);
    // Prefer the exact store record so the snapshot is taken as late as
    // possible (after any same-rid CA record's accelerator flushes).
    for (auto it = pos; it != records_.end() && it->rid == before_rid;
         ++it) {
        if (it->type == EventType::kStore) {
            pos = it;
            break;
        }
    }
    rec.chargedBytes = rec.compressedBytes();
    bytes_ += rec.chargedBytes;
    ++appended_;
    records_.insert(pos, std::move(rec));
}

} // namespace paralog
