/**
 * @file
 * Host-parallel *live* monitoring engine: the application cores and the
 * whole capture pipeline run on the calling thread while each lifeguard
 * core runs on a consumer host thread, fed through a lock-free SPSC
 * ring (the live-path counterpart of core/replay_concurrent.cpp).
 *
 * The serial scheduler interleaves application steps and lifeguard
 * steps under one clock, so producer-side stream mutations (drain-time
 * arc attachment, TSO consume/produce annotations, visibility-limit
 * moves, CA-sequence stamping) always land on records the consumer has
 * not reached yet. Decoupling the two sides needs the same *publication
 * seal* idea as concurrent replay — a record may be handed to its
 * consumer only once nothing can still mutate it — but computed
 * *online*, with no journal pre-pass to consult. Two producer-side
 * facts make an online seal possible:
 *
 *  1. Every mutation except TSO consume-version annotation targets a
 *     record the visibility limit still hides (drain-time arcs and
 *     produce insertions go to store-buffer-hidden stores; CA stamping
 *     happens within the issuing step, before any publication runs).
 *     `LogBuffer::peek(visLimit_)` already enforces this bound.
 *
 *  2. A consume-version annotation targets a *load* that retired
 *     strictly after the store whose drain raises it
 *     (MemorySystem::addArcFrom compares AccessTag retire cycles). So
 *     once every store currently buffered retired at or after a
 *     record's append cycle, no present or future drain can annotate
 *     it. The watermark W = min over cores of the oldest buffered
 *     store's retire cycle therefore seals everything appended at or
 *     before W (TsoDataPath::oldestStoreRetire; under SC, W is +inf).
 *
 * CaptureUnit::publishSealed applies both bounds and prefix-maxes them
 * into the per-stream publication frontier (the ceiling bound). The
 * producer pumps publication after every simulation iteration; because
 * publication, back-pressure (canAppend) and syscall draining are pure
 * functions of producer-side state, the producer's simulation is
 * bit-deterministic regardless of consumer timing.
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

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/spsc_ring.hpp"
#include "trace/recorder.hpp"

namespace paralog {

RunResult
Platform::runConcurrentLive()
{
    const std::uint32_t k = cfg_.sim.appThreads;

    // Ring capacity trades hand-off slack against footprint; sealed
    // records overflow to a producer-side queue when a consumer lags,
    // so the seal never blocks the application simulation.
    constexpr std::size_t kRingSlots = 4096;
    std::deque<SpscRing<EventRecord>> rings;
    for (ThreadId t = 0; t < k; ++t) {
        rings.emplace_back(kRingSlots);
        captures_[t]->attachRing(&rings[t]);
    }

    std::atomic<bool> abortFlag{false};
    std::atomic<std::uint32_t> liveConsumers{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    auto noteFailure = [&] {
        {
            std::lock_guard<std::mutex> g(errMutex);
            if (!firstError)
                firstError = std::current_exception();
        }
        abortFlag.store(true, std::memory_order_release);
    };

    // Failure-containment hook (fault point "lg.fail"): panic on the
    // consumer thread that owns the named lifeguard stream.
    ThreadId failTid = kInvalidThread;
    if (std::optional<std::uint64_t> v = faultValue("lg.fail"))
        failTid = static_cast<ThreadId>(*v);
    // Seal-protocol stall rig (fault point "seal.stall"): never publish
    // the named stream, so its consumer starves and the watchdog must
    // catch the stall and dump per-stream frontier state.
    ThreadId stallStream = kInvalidThread;
    if (std::optional<std::uint64_t> v = faultValue("seal.stall"))
        stallStream = static_cast<ThreadId>(*v);

    // ---- consumers -----------------------------------------------------
    const std::uint32_t nConsumers =
        std::min<std::uint32_t>(cfg_.lgThreads, k);

    // LockSet writes metadata from application-*read* handlers (it
    // violates condition 2 of section 5.3), so unordered cross-thread
    // read pairs may touch the same granule state: serialize whole
    // steps (the delivery protocol still orders everything else).
    // User-defined lifeguards get the same conservative treatment —
    // there is no policy bit declaring their handlers read-only.
    std::mutex stepMutex;
    const bool serializeSteps =
        cfg_.customLifeguard != nullptr ||
        cfg_.lifeguard == LifeguardKind::kLockSet;

    auto consumerBody = [&](std::uint32_t slot) {
        std::vector<std::pair<ThreadId, LifeguardCore *>> mine;
        std::vector<Cycle> nows;
        for (ThreadId t = slot; t < k; t += nConsumers) {
            mine.emplace_back(t, lgCores_[t].get());
            nows.push_back(0);
        }
        for (;;) {
            if (abortFlag.load(std::memory_order_acquire))
                return;
            bool all_done = true;
            bool progressed = false;
            for (std::size_t i = 0; i < mine.size(); ++i) {
                LifeguardCore *core = mine[i].second;
                if (core->finished())
                    continue;
                all_done = false;
                if (mine[i].first == failTid)
                    panic("lg.fail: injected failure on live lifeguard "
                          "thread %u",
                          mine[i].first);
                std::uint64_t before = core->stats.recordsProcessed;
                if (serializeSteps) {
                    std::lock_guard<std::mutex> g(stepMutex);
                    core->step(nows[i], ~Cycle{0});
                } else {
                    core->step(nows[i], ~Cycle{0});
                }
                nows[i] = std::max(nows[i], core->busyUntil);
                progressed |= (core->stats.recordsProcessed != before);
            }
            if (all_done)
                return;
            if (!progressed)
                std::this_thread::yield();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(nConsumers);
    liveConsumers.store(nConsumers, std::memory_order_relaxed);
    for (std::uint32_t slot = 0; slot < nConsumers; ++slot) {
        workers.emplace_back([&, slot] {
            try {
                consumerBody(slot);
            } catch (...) {
                noteFailure();
            }
            liveConsumers.fetch_sub(1, std::memory_order_release);
        });
    }

    // ---- producer (this thread) ----------------------------------------
    std::vector<AppCore *> apps;
    apps.reserve(appCores_.size());
    for (auto &c : appCores_)
        apps.push_back(c.get());

    auto apps_done = [&apps] {
        for (const AppCore *c : apps) {
            if (c->active())
                return false;
        }
        return true;
    };

    // Publication pump: compute the TSO watermark (min retire cycle of
    // any buffered store, +inf under SC / empty buffers) once per call
    // and advance every stream's frontier.
    auto publishAll = [&] {
        Cycle watermark = ~Cycle{0};
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core) {
                watermark = std::min(watermark,
                                     tsoPath_->oldestStoreRetire(core));
            }
        }
        for (ThreadId t = 0; t < k; ++t) {
            if (t == stallStream)
                continue;
            captures_[t]->publishSealed(watermark);
        }
    };

    // Live stall signature. Two-phase threading contract: while the
    // producer loop runs, this is polled on the producer thread, so all
    // producer-side plain state (retired counters, capture appends,
    // visibility limits, overflow sizes) is same-thread readable; once
    // the producer is done, the same thread becomes the supervisor and
    // producer-side state is stable. Consumer-side inputs are atomics
    // only: ring pop counts, the progress table, version counters.
    // (The serial signature also samples lifeguard stats — plain
    // members, host-racy here, deliberately excluded.)
    // Folded FNV-style rather than summed: the producer moving a record
    // from overflow to ring changes two terms in opposite directions,
    // which a plain sum would cancel to "no progress".
    Counter &produced_ctr = versions_.stats.counter("produced");
    Counter &consumed_ctr = versions_.stats.counter("consumed");
    auto signature = [&] {
        std::uint64_t sig = 1469598103934665603ULL;
        auto fold = [&sig](std::uint64_t v) {
            sig = (sig ^ v) * 1099511628211ULL;
        };
        fold(produced_ctr.value());
        fold(consumed_ctr.value());
        for (const AppCore *c : apps)
            fold(c->tc().retired);
        for (ThreadId t = 0; t < k; ++t) {
            fold(captures_[t]->buffer().appended()); // capture appends
            fold(captures_[t]->overflowSize());
            fold(captures_[t]->ceilingBound()); // frontier advance
            fold(rings[t].published());         // ring push
            fold(rings[t].popped());            // ring pop
            fold(progress_->done(t));
        }
        return sig;
    };

    // Per-stream frontier dump for seal-protocol stalls (the live
    // counterpart of dumpStuckState, which samples lifeguard-side
    // state this engine must not touch from the producer thread).
    auto dumpFrontiers = [&] {
        std::fprintf(stderr, "=== live-parallel watchdog state dump ===\n");
        Cycle watermark = ~Cycle{0};
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core) {
                watermark = std::min(watermark,
                                     tsoPath_->oldestStoreRetire(core));
            }
        }
        std::fprintf(stderr, "watermark=%llu\n",
                     static_cast<unsigned long long>(watermark));
        for (ThreadId t = 0; t < k; ++t) {
            const AppCore &ac = *appCores_[t];
            std::fprintf(
                stderr,
                "stream %u: app active=%d retired=%llu reason=%d | "
                "appended=%llu bufSize=%zu visLimit=%llu frontier=%llu "
                "overflow=%zu | ring pub=%llu pop=%llu | done=%llu "
                "lgFinished=%d",
                t, ac.active() ? 1 : 0,
                static_cast<unsigned long long>(ac.tc().retired),
                static_cast<int>(ac.tc().blockReason),
                static_cast<unsigned long long>(
                    captures_[t]->buffer().appended()),
                captures_[t]->buffer().size(),
                static_cast<unsigned long long>(
                    captures_[t]->visibilityLimit()),
                static_cast<unsigned long long>(
                    captures_[t]->ceilingBound()),
                captures_[t]->overflowSize(),
                static_cast<unsigned long long>(rings[t].published()),
                static_cast<unsigned long long>(rings[t].popped()),
                static_cast<unsigned long long>(progress_->done(t)),
                lgCores_[t]->finished() ? 1 : 0);
            if (tsoPath_) {
                std::fprintf(
                    stderr, " | storeBuf=%zu oldestRetire=%llu",
                    tsoPath_->depth(static_cast<CoreId>(t)),
                    static_cast<unsigned long long>(
                        tsoPath_->oldestStoreRetire(
                            static_cast<CoreId>(t))));
            }
            std::fprintf(stderr, "\n");
        }
    };

    // Any producer-side fatality must stop and join the consumers
    // before panicking: panic may throw (matrix containment mode), and
    // an exception flying past live threads touching this frame's
    // state would be undefined behavior.
    auto shutdownPanic = [&](const std::string &why) {
        abortFlag.store(true, std::memory_order_release);
        for (std::thread &w : workers)
            w.join();
        dumpFrontiers();
        panic("%s", why.c_str());
    };

    // Same cadence as the serial scheduler: sampled every 64
    // iterations so the signature stays off the hot loop's profile.
    ProgressWatchdog stall_watchdog(cfg_.stallWatchdogIters / 64 + 1);
    std::uint64_t watchdog_tick = 0;
    auto poll_watchdog = [&] {
        if ((++watchdog_tick & 63) == 0 &&
            stall_watchdog.poll(signature())) {
            shutdownPanic(strprintf(
                "live-parallel watchdog: no forward progress in %llu "
                "scheduler iterations (seal-protocol or hand-off "
                "stall)",
                static_cast<unsigned long long>(
                    cfg_.stallWatchdogIters)));
        }
    };

    Cycle now = 0;
    Cycle last_now = 0;
    std::uint64_t same_now_iters = 0;

    while (!apps_done()) {
        if (abortFlag.load(std::memory_order_acquire))
            break;
        if (now == last_now) {
            if (++same_now_iters > 20'000'000) {
                shutdownPanic(strprintf(
                    "livelock: cycle %llu never advances",
                    static_cast<unsigned long long>(now)));
            }
        } else {
            last_now = now;
            same_now_iters = 0;
        }
        poll_watchdog();
        // Event-driven advance: the application cores are the only
        // simulated actors on this thread (lifeguard timing is
        // relaxed), so the next event is the earliest ready app core.
        Cycle next = kInvalidRecord;
        for (AppCore *c : apps) {
            if (c->active())
                next = std::min(next, c->busyUntil);
        }
        if (next > now)
            now = next;
        if (cfg_.recorder)
            cfg_.recorder->setNow(now);
        if (now > cfg_.maxCycles) {
            shutdownPanic(strprintf(
                "simulation watchdog: no completion after %llu cycles "
                "(deadlock or runaway workload)",
                static_cast<unsigned long long>(cfg_.maxCycles)));
        }

        for (AppCore *c : apps) {
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
    if (tsoPath_) {
        for (;;) {
            if (abortFlag.load(std::memory_order_acquire))
                break;
            Cycle next_ready = ~Cycle{0};
            for (CoreId core = 0; core < k; ++core)
                next_ready = std::min(next_ready,
                                      tsoPath_->nextDrainReady(core));
            if (next_ready == ~Cycle{0})
                break; // every buffer empty
            if (next_ready > now)
                now = next_ready;
            if (cfg_.recorder)
                cfg_.recorder->setNow(now);
            for (CoreId core = 0; core < k; ++core)
                tsoPath_->pump(core, now);
            publishAll();
            poll_watchdog();
        }
    }

    // Tail flush: everything is sealed now; drain the log buffers and
    // overflow queues into the rings as the consumers make space.
    for (;;) {
        if (abortFlag.load(std::memory_order_acquire))
            break;
        publishAll();
        bool pending = false;
        for (ThreadId t = 0; t < k; ++t)
            pending |= !captures_[t]->liveAllPublished();
        if (!pending)
            break;
        poll_watchdog();
        std::this_thread::yield();
    }

    // ---- supervisor (same thread, consumers finishing) -----------------
    ProgressWatchdog tail_watchdog(
        std::max<std::uint64_t>(1000, cfg_.stallWatchdogIters / 1000));
    bool stalled = false;
    while (liveConsumers.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (!stalled && tail_watchdog.poll(signature())) {
            stalled = true;
            abortFlag.store(true, std::memory_order_release);
        }
    }
    for (std::thread &w : workers)
        w.join();

    if (stalled) {
        dumpFrontiers();
        panic("live-parallel watchdog: consumers made no forward "
              "progress after the producer finished (delivery "
              "deadlock)");
    }
    if (firstError)
        std::rethrow_exception(firstError);

    Cycle total = now;
    for (auto &c : lgCores_)
        total = std::max(total, c->busyUntil);
    return collectResult(total);
}

} // namespace paralog
