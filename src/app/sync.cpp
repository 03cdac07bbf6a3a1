#include "app/sync.hpp"

#include "common/logging.hpp"

namespace paralog {

bool
LockManager::tryAcquire(Addr addr, ThreadId tid)
{
    auto it = owners_.find(addr);
    if (it != owners_.end())
        return false;
    owners_.emplace(addr, tid);
    return true;
}

void
LockManager::release(Addr addr, ThreadId tid)
{
    auto it = owners_.find(addr);
    PARALOG_ASSERT(it != owners_.end() && it->second == tid,
                   "thread %u releasing lock %#llx it does not hold", tid,
                   static_cast<unsigned long long>(addr));
    owners_.erase(it);
}

ThreadId
LockManager::owner(Addr addr) const
{
    auto it = owners_.find(addr);
    return it == owners_.end() ? kInvalidThread : it->second;
}

bool
BarrierManager::arrive(Addr addr, ThreadId tid, std::uint32_t participants)
{
    State &s = barriers_[addr];
    s.arrivedIn[tid] = s.generation;
    ++s.waiting;
    if (s.waiting >= participants) {
        // Last arriver: release this generation.
        ++s.generation;
        s.waiting = 0;
        return true;
    }
    return false;
}

bool
BarrierManager::isReleased(Addr addr, ThreadId tid) const
{
    auto bit = barriers_.find(addr);
    if (bit == barriers_.end())
        return true;
    const State &s = bit->second;
    auto it = s.arrivedIn.find(tid);
    if (it == s.arrivedIn.end())
        return true;
    return it->second < s.generation;
}

void
BarrierManager::depart(Addr addr, ThreadId tid)
{
    auto bit = barriers_.find(addr);
    if (bit != barriers_.end())
        bit->second.arrivedIn.erase(tid);
}

} // namespace paralog
