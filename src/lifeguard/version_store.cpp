#include "lifeguard/version_store.hpp"

#include "common/logging.hpp"

namespace paralog {

bool
VersionStore::produce(const VersionTag &v, const Versioned &data)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto wm = consumedWatermark_.find(v.tid);
    if (wm != consumedWatermark_.end() && v.rid <= wm->second) {
        producedStaleCtr_.inc();
        return false;
    }
    // Keep-first on duplicate produce: the earliest snapshot is the
    // one closest to the pre-overwrite state, and counting a second
    // one would leave produced > consumed (the consumer takes each
    // tag exactly once).
    if (!entries_.emplace(v, data).second) {
        producedDuplicateCtr_.inc();
        return false;
    }
    producedCtr_.inc();
    return true;
}

void
VersionStore::produceBackstop(const VersionTag &v, const Versioned &data)
{
    if (produce(v, data))
        producedBackstopCtr_.inc();
}

bool
VersionStore::available(const VersionTag &v) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(v) > 0;
}

VersionStore::Versioned
VersionStore::consume(const VersionTag &v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(v);
    PARALOG_ASSERT(it != entries_.end(),
                   "consuming unavailable version (%u, %llu)", v.tid,
                   static_cast<unsigned long long>(v.rid));
    Versioned data = it->second;
    entries_.erase(it);
    RecordId &wm = consumedWatermark_[v.tid];
    if (v.rid > wm)
        wm = v.rid;
    consumedCtr_.inc();
    return data;
}

void
VersionStore::markWriterDone(const VersionTag &v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(v);
    if (it == entries_.end())
        return; // consumer ran first: handler order already matches
    it->second.writerDone = true;
    writerFirstCtr_.inc();
}

} // namespace paralog
