/**
 * @file
 * Executes micro-ISA instructions for one thread at a time, performing
 * real data movement through the coherent memory system and expanding
 * high-level operations (malloc/free/lock/syscall) into the micro-op
 * sequences a wrapper library would produce (paper section 5.4).
 */

#ifndef PARALOG_APP_INTERPRETER_HPP
#define PARALOG_APP_INTERPRETER_HPP

#include "app/data_path.hpp"
#include "app/event.hpp"
#include "app/heap.hpp"
#include "app/sync.hpp"
#include "app/thread_context.hpp"
#include "common/stats.hpp"
#include "sim/config.hpp"

namespace paralog {

/** Queries the interpreter needs answered by the monitoring platform. */
class PlatformHooks
{
  public:
    virtual ~PlatformHooks() = default;

    /** Damage containment: has tid's lifeguard consumed every pending
     *  record? (Always true when monitoring is off.) */
    virtual bool lifeguardDrained(ThreadId tid) = 0;
};

class Interpreter
{
  public:
    struct StepOutcome
    {
        enum class Kind : std::uint8_t
        {
            kRetired, ///< one micro-op retired; event may carry a record
            kBlocked, ///< could not make progress; see tc.blockReason
            kDone,    ///< thread has exited
        };

        Kind kind = Kind::kRetired;
        Cycle latency = 1;
        AppEvent event;
    };

    Interpreter(const SimConfig &cfg, DataPath &dp, MemorySystem &mem,
                Heap &heap, LockManager &locks, BarrierManager &barriers,
                PlatformHooks &hooks);

    /**
     * Execute the next micro-op of @p tc on @p core at cycle @p now.
     * On kRetired the caller must append event.record (if type != kNone)
     * to the thread's stream and advance tc.retired.
     *
     * @p out is a caller-owned scratch reused across steps (this is the
     * per-instruction fast path: reuse avoids a StepOutcome construct /
     * destruct pair per micro-op). Only the fields defined for the
     * returned kind are valid; in no-monitoring runs the event payload
     * is not populated at all.
     */
    void step(ThreadContext &tc, CoreId core, Cycle now, StepOutcome &out);

    /** Convenience by-value wrapper (tests). */
    StepOutcome
    step(ThreadContext &tc, CoreId core, Cycle now)
    {
        StepOutcome out;
        step(tc, core, now, out);
        return out;
    }

    StatSet stats{"interp"};

  private:
    void execute(ThreadContext &tc, CoreId core, Cycle now,
                 const Inst &inst, StepOutcome &out);
    void blocked(ThreadContext &tc, const Inst &inst, BlockReason reason,
                 StepOutcome &out);

    AccessTag tagFor(const ThreadContext &tc, Cycle now) const;
    static Addr effectiveAddr(const ThreadContext &tc, const Inst &inst);
    void expandMalloc(ThreadContext &tc, const Inst &inst);
    void expandFree(ThreadContext &tc, const Inst &inst);
    void expandSyscall(ThreadContext &tc, const Inst &inst);

    const SimConfig &cfg_;
    /// Record payloads are only populated when someone consumes them
    /// (capture enabled); no-monitoring runs skip the per-instruction
    /// event reset entirely.
    bool emitRecords_;
    Counter &retiredCtr_{stats.counter("retired")};
    Counter &lockSpinsCtr_{stats.counter("lock_spins")};
    Counter &lockAcquiresCtr_{stats.counter("lock_acquires")};
    Counter &barrierArrivalsCtr_{stats.counter("barrier_arrivals")};
    Counter &drainStallsCtr_{stats.counter("drain_stalls")};
    DataPath &dp_;
    MemorySystem &mem_;
    Heap &heap_;
    LockManager &locks_;
    BarrierManager &barriers_;
    PlatformHooks &hooks_;
};

} // namespace paralog

#endif // PARALOG_APP_INTERPRETER_HPP
