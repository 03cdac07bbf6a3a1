/**
 * @file
 * Simulated pthread-style synchronization: spin locks and phase barriers.
 * Acquire/release operations perform *real* read-modify-write accesses on
 * the lock/barrier words, so coherence dependence arcs naturally order
 * critical sections across lifeguard threads.
 */

#ifndef PARALOG_APP_SYNC_HPP
#define PARALOG_APP_SYNC_HPP

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hpp"

namespace paralog {

class LockManager
{
  public:
    /** Try to acquire the lock word at @p addr for @p tid. */
    bool tryAcquire(Addr addr, ThreadId tid);

    /** Release; panics if @p tid is not the owner. */
    void release(Addr addr, ThreadId tid);

    ThreadId owner(Addr addr) const;

  private:
    std::unordered_map<Addr, ThreadId> owners_;
};

class BarrierManager
{
  public:
    /**
     * Thread @p tid arrives at the barrier word @p addr expecting
     * @p participants total arrivals. Returns true if this arrival
     * releases the barrier (last arriver).
     */
    bool arrive(Addr addr, ThreadId tid, std::uint32_t participants);

    /** True once the generation @p tid arrived in has been released. */
    bool isReleased(Addr addr, ThreadId tid) const;

    /** Forget the thread's participation (after it passes). */
    void depart(Addr addr, ThreadId tid);

  private:
    struct State
    {
        std::uint64_t generation = 0;
        std::unordered_map<ThreadId, std::uint64_t> arrivedIn;
        std::uint32_t waiting = 0;
    };

    std::unordered_map<Addr, State> barriers_;
};

} // namespace paralog

#endif // PARALOG_APP_SYNC_HPP
