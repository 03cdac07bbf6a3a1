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
 * waits), never schedule-reproduced. Analysis results — the shadow
 * fingerprint and the distinct-violation set — are identical to a
 * serial live run; simulated timing, stall breakdowns, per-stream
 * record counts and version counts are relaxed (application timing
 * feedback differs: the serial app waits for *consumption* at drain
 * points, the parallel app for *publication*).
 */

#include "core/platform.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "core/consumer_pool.hpp"
#include "trace/recorder.hpp"

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
             for (auto &c : appCores_)
                 fold(c->tc().retired);
             for (ThreadId t = 0; t < k; ++t)
                 fold(captures_[t]->buffer().appended());
         },
         [&](ThreadId t) {
             const AppCore &ac = *appCores_[t];
             std::fprintf(
                 stderr,
                 "  app active=%d retired=%llu reason=%d | bufSize=%zu "
                 "visLimit=%llu | storeBuf=%zu oldestRetire=%llu\n",
                 ac.active() ? 1 : 0,
                 static_cast<unsigned long long>(ac.tc().retired),
                 static_cast<int>(ac.tc().blockReason),
                 captures_[t]->buffer().size(),
                 static_cast<unsigned long long>(
                     captures_[t]->visibilityLimit()),
                 tsoPath_ ? tsoPath_->depth(t) : 0,
                 static_cast<unsigned long long>(
                     tsoPath_ ? tsoPath_->oldestStoreRetire(t) : ~Cycle{0}));
         }},
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

    auto apps_done = [&] {
        for (auto &c : appCores_) {
            if (c->active())
                return false;
        }
        return true;
    };

    Cycle now = 0;
    Cycle last_now = 0;
    std::uint64_t same_now_iters = 0;

    // A panic here unwinds through the pool, whose destructor stops and
    // joins the consumers first.
    while (!apps_done() && !pool.aborted()) {
        if (now == last_now) {
            if (++same_now_iters > 20'000'000)
                panic("livelock: cycle %llu never advances",
                      static_cast<unsigned long long>(now));
        } else {
            last_now = now;
            same_now_iters = 0;
        }
        pool.poll();
        // Event-driven advance: the application cores are the only
        // simulated actors on this thread (lifeguard timing is
        // relaxed), so the next event is the earliest ready app core.
        Cycle next = kInvalidRecord;
        for (auto &c : appCores_) {
            if (c->active())
                next = std::min(next, c->busyUntil);
        }
        if (next > now)
            now = next;
        if (cfg_.recorder)
            cfg_.recorder->setNow(now);
        if (now > cfg_.maxCycles) {
            panic("simulation watchdog: no completion after %llu cycles "
                  "(deadlock or runaway workload)",
                  static_cast<unsigned long long>(cfg_.maxCycles));
        }

        for (auto &c : appCores_) {
            if (c->active() && c->busyUntil <= now)
                c->step(now);
        }
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core)
                tsoPath_->pump(core, now);
        }
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
        if (cfg_.recorder)
            cfg_.recorder->setNow(now);
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
