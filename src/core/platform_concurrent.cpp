/**
 * @file
 * Host-parallel *live* monitoring engine. Only the producer lives here:
 * the application cores and the whole capture pipeline run on the
 * calling thread, which publishes sealed records to the lifeguard
 * cores' consumer threads through the shared ConsumerPool
 * (core/consumer_pool.hpp, also behind core/replay_concurrent.cpp) and
 * then supervises them to completion.
 *
 * The serial scheduler interleaves application steps and lifeguard
 * steps under one clock, so producer-side stream mutations (drain-time
 * arc attachment, TSO consume/produce annotations, visibility-limit
 * moves, CA-sequence stamping) always land on records the consumer has
 * not reached yet. With free-running consumers a record may be
 * *published* only once nothing can still mutate it. Replay reads that
 * seal from a journal pre-pass; live computes it *online* from two
 * producer-side facts:
 *
 *  1. Every mutation except TSO consume-version annotation targets a
 *     record the visibility limit still hides (drain-time arcs and
 *     produce insertions go to store-buffer-hidden stores; CA stamping
 *     happens within the issuing step, before any publication runs).
 *
 *  2. A consume-version annotation targets a *load* that retired
 *     strictly after the store whose drain raises it
 *     (MemorySystem::addArcFrom compares AccessTag retire cycles). So
 *     once every store currently buffered retired at or after a
 *     record's append cycle, no present or future drain can annotate
 *     it. The watermark W = min over cores of the oldest buffered
 *     store's retire cycle therefore seals everything appended at or
 *     before W (TsoDataPath::oldestStoreRetire; under SC, W is +inf).
 *     CA-arrival and produce records keep append cycle 0 and pass.
 *
 * The producer pumps publication after every simulation iteration;
 * because publication, back-pressure (canAppend) and syscall draining
 * are pure functions of producer-side state, the producer's simulation
 * is bit-deterministic regardless of consumer timing.
 *
 * Delivery *order* on the consumer side is protocol-enforced (arcs
 * against the progress table, two-sided CA barriers, TSO version
 * waits), never schedule-reproduced. The results match a serial live
 * run at ResultTier::kAnalysis (core/run_stats.hpp).
 */

#include "core/platform.hpp"

#include <algorithm>

#include "core/consumer_pool.hpp"

namespace paralog {

RunResult
Platform::runConcurrentLive()
{
    const std::uint32_t k = cfg_.sim.appThreads;

    // LockSet writes metadata from application-*read* handlers (it
    // violates condition 2 of section 5.3), so unordered cross-thread
    // read pairs may touch the same granule state: serialize whole
    // steps. User-defined lifeguards get the same conservative
    // treatment — there is no policy bit declaring their handlers
    // read-only.
    ConsumerPool pool(
        {"live-parallel", cfg_.lgThreads,
         cfg_.customLifeguard != nullptr ||
             cfg_.lifeguard == LifeguardKind::kLockSet,
         cfg_.stallWatchdogIters,
         [&](SignatureFold &fold) {
             foldState(fold, 0);
             for (ThreadId t = 0; t < k; ++t)
                 fold(captures_[t]->buffer().appended());
         },
         [&](ThreadId t) { dumpStream(t); }},
        captures_, lgCores_, *progress_, versions_);

    // Publication pump: compute the TSO watermark (+inf under SC or
    // with empty store buffers) once per pass and publish every
    // visible record appended at or below it.
    auto publishAll = [&] {
        Cycle watermark = ~Cycle{0};
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core) {
                watermark = std::min(watermark,
                                     tsoPath_->oldestStoreRetire(core));
            }
        }
        pool.publish([&](ThreadId t, const EventRecord &head) {
            return head.rid < captures_[t]->visibilityLimit() &&
                   head.appendCycle <= watermark;
        });
    };

    // The serial scheduler's producer hooks and clock checks, minus its
    // lifeguard phase: the application cores are the only simulated
    // actors on this thread (lifeguard timing is relaxed). A failed
    // check joins the consumers before it dumps and panics.
    Cycle now = 0;
    ClockGuard clock("", cfg_.maxCycles);
    while (!producersDone() && !pool.aborted()) {
        if (clock.livelocked(now))
            pool.stop(clock.why(now));
        pool.poll();
        now = std::max(now, nextProducerCycle());
        if (clock.overdue(now))
            pool.stop(clock.why(now));
        produce(now, 0);
        publishAll();
    }

    // Post-application TSO drain: the serial scheduler keeps advancing
    // time through the lifeguard cores until the store buffers empty;
    // here the producer must advance it itself so visibility limits
    // lift and the watermark reaches +inf.
    while (tsoPath_ && !pool.aborted()) {
        Cycle next_ready = ~Cycle{0};
        for (CoreId core = 0; core < k; ++core)
            next_ready = std::min(next_ready, tsoPath_->nextDrainReady(core));
        if (next_ready == ~Cycle{0})
            break; // every buffer empty
        if (next_ready > now)
            now = next_ready;
        for (CoreId core = 0; core < k; ++core)
            tsoPath_->pump(core, now);
        publishAll();
        pool.poll();
    }

    // Everything is sealed now: drain the log buffers and overflow
    // queues into the rings as the consumers make space, then supervise
    // the consumers to completion.
    pool.flush(publishAll);
    pool.finish();

    Cycle total = now;
    for (auto &c : lgCores_)
        total = std::max(total, c->busyUntil);
    return collectResult(total);
}

} // namespace paralog
