#include "deliver/ca_manager.hpp"

#include "common/logging.hpp"

namespace paralog {

Cycle
CaManager::broadcast(ThreadId issuer, RecordId issuer_event_rid,
                     HighLevelKind kind, const AddrRange &range,
                     const std::vector<CaptureUnit *> &units,
                     const std::vector<bool> &thread_alive)
{
    CaBroadcast b;
    b.seq = nextSeq_++;
    b.issuer = issuer;
    b.issuerEventRid = issuer_event_rid;
    b.kind = kind;
    b.range = range;
    b.arrivalRid.assign(numThreads_, kInvalidRecord);

    bool is_begin = (kind == HighLevelKind::kFreeBegin ||
                     kind == HighLevelKind::kSyscallBegin);

    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (t == issuer || !thread_alive[t])
            continue;
        EventRecord rec;
        rec.type = is_begin ? EventType::kCaBegin : EventType::kCaEnd;
        rec.value = b.seq;
        rec.setRange(range);
        rec.caKind = kind;
        units[t]->appendCa(std::move(rec));
        b.arrivalRid[t] = units[t]->retired();
        ++b.waitersRemaining;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        live_.emplace(b.seq, std::move(b));
    }
    broadcastsCtr_.inc();

    // The issuing thread serializes: it waits for an acknowledgement
    // from the order-capturing component of every other core. Model a
    // round-trip proportional to the core count.
    return 4 + 2 * numThreads_;
}

void
CaManager::injectBroadcast(CaBroadcast b)
{
    if (b.seq >= nextSeq_)
        nextSeq_ = b.seq + 1;
    broadcastsCtr_.inc();
    std::lock_guard<std::mutex> lock(mutex_);
    live_.emplace(b.seq, std::move(b));
}

const CaBroadcast *
CaManager::find(std::uint64_t seq) const
{
    auto it = live_.find(seq);
    return it == live_.end() ? nullptr : &it->second;
}

bool
CaManager::lookup(std::uint64_t seq, CaBroadcast &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(seq);
    if (it == live_.end())
        return false;
    out = it->second;
    return true;
}

void
CaManager::noteWaiterPassed(std::uint64_t seq)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(seq);
    if (it == live_.end())
        return;
    if (it->second.waitersRemaining > 0)
        --it->second.waitersRemaining;
    if (it->second.waitersRemaining == 0 && it->second.issuerDone)
        live_.erase(it);
}

void
CaManager::noteIssuerDelivered(std::uint64_t seq)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(seq);
    if (it == live_.end())
        return;
    it->second.issuerDone = true;
    if (it->second.waitersRemaining == 0)
        live_.erase(it);
}

} // namespace paralog
