/**
 * @file
 * Host-parallel replay engine: each lifeguard core runs on its own host
 * thread, consuming its event stream through a lock-free SPSC ring,
 * while one producer thread re-applies the recorded journal.
 *
 * The serial replay engine interleaves producer ops and lifeguard steps
 * under one scheduler, so producer-side stream mutations (drain-time
 * arc attachment, TSO annotations, visibility-limit moves, CA-sequence
 * stamping) always target records the consumer has not reached yet. The
 * concurrent engine decouples the two sides; its safety hinges on one
 * idea, the *publication seal*:
 *
 *   A record may be handed to its consumer only after every journal op
 *   that still mutates it (or gates its visibility) has been applied.
 *
 * A pre-pass that decodes each stream of the journal once
 * (core/publication_plan.cpp) computes, per stream, the final record
 * sequence and each record's seal — the greatest gseq among its append,
 * the visibility-limit move that exposes it, arc attachments, effective
 * consume-version annotations, and the ConflictAlert broadcast that
 * stamps or targets it. Prefix-maxing the seals (publication is in
 * stream order) yields a publication schedule that is a pure function
 * of the journal: the producer applies ops in global gseq order and,
 * after each op, moves every newly-sealed record out of the log buffer
 * into the stream's ring. Because records leave the log buffer exactly
 * at publication, by-rid lookups from later ops ("is this record still
 * pending?") are deterministic — independent of consumer timing — and
 * resolve exactly as they did in the recorded run.
 *
 * Delivery *order* then needs no schedule reproduction at all: the
 * order-enforcing components run the real protocol (dependence arcs
 * against the release/acquire progress table, two-sided ConflictAlert
 * barriers, TSO version waits), which is what orders same-line metadata
 * accesses. Analysis results — shadow fingerprint, violations, records
 * processed, versions produced/consumed — are therefore identical to
 * the serial engine (checked against the trace footer and by the
 * differential test matrix). Simulated *timing* (cycle counts, stall
 * breakdowns) is relaxed: there is no global clock across host threads.
 */

#include "core/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/spsc_ring.hpp"
#include "core/publication_plan.hpp"

namespace paralog {

RunResult
ReplayPlatform::runConcurrent()
{
    std::vector<StreamPlan> plans = buildPublicationPlans(cfg_.path, k_);

    // Ring capacity trades hand-off slack against footprint; overflow
    // below keeps the producer non-blocking when a consumer lags.
    constexpr std::size_t kRingSlots = 4096;
    std::deque<SpscRing<EventRecord>> rings;
    for (ThreadId t = 0; t < k_; ++t) {
        rings.emplace_back(kRingSlots);
        captures_[t]->attachRing(&rings[t]);
    }

    std::atomic<bool> abortFlag{false};
    std::atomic<std::uint64_t> appliedOps{0};
    std::atomic<std::uint32_t> liveWorkers{0};
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

    // ---- producer ------------------------------------------------------
    struct ProdStream
    {
        std::size_t cursor = 0; ///< next plan entry to publish
        /// Records popped at publication while the ring was full; FIFO
        /// into the ring ahead of anything newer.
        std::deque<EventRecord> overflow;
    };
    std::vector<ProdStream> prod(k_);

    // Move every newly-sealed record out of the log buffer into the
    // ring, make the batch visible with one publish, then advance the
    // consumer's progress bound. Publish-before-bound is load-bearing:
    // the bound promises "everything below is in the ring".
    auto drainStream = [&](ThreadId t, std::uint64_t applied_gseq) {
        ProdStream &ps = prod[t];
        SpscRing<EventRecord> &ring = rings[t];
        const StreamPlan &plan = plans[t];
        while (!ps.overflow.empty() &&
               ring.tryPush(std::move(ps.overflow.front())))
            ps.overflow.pop_front();
        LogBuffer &buf = captures_[t]->buffer();
        while (ps.cursor < plan.seq.size() &&
               plan.pubSeal[ps.cursor] <= applied_gseq) {
            const SealEntry &e = plan.seq[ps.cursor];
            const EventRecord *head = buf.peek(kInvalidRecord);
            PARALOG_ASSERT(
                head && head->rid == e.rid && head->type == e.type,
                "concurrent replay: stream %u diverged from its "
                "publication plan at entry %zu (expected rid %llu)",
                t, ps.cursor, static_cast<unsigned long long>(e.rid));
            EventRecord rec = buf.pop();
            if (!ps.overflow.empty() ||
                !ring.tryPush(std::move(rec)))
                ps.overflow.push_back(std::move(rec));
            ++ps.cursor;
        }
        ring.publish();
        RecordId bound = captures_[t]->bufferCeiling();
        if (!ps.overflow.empty() && ps.overflow.front().rid < bound)
            bound = ps.overflow.front().rid;
        captures_[t]->setCeilingBound(bound);
    };

    auto producerBody = [&] {
        std::vector<ReplayCore *> cores;
        cores.reserve(k_);
        for (auto &c : replayCores_)
            cores.push_back(c.get());
        while (!abortFlag.load(std::memory_order_acquire)) {
            // Global journal order: the op with the smallest gseq.
            ReplayCore *best = nullptr;
            std::uint64_t best_gseq = ~0ULL;
            for (ReplayCore *p : cores) {
                if (const trace::TraceOp *op = p->peek()) {
                    if (op->gseq < best_gseq) {
                        best = p;
                        best_gseq = op->gseq;
                    }
                }
            }
            if (!best)
                break;
            best->apply();
            appliedOps.fetch_add(1, std::memory_order_relaxed);
            for (ThreadId t = 0; t < k_; ++t)
                drainStream(t, best_gseq);
        }
        // Tail flush: the exhausted journal seals everything; overflow
        // may still be waiting on ring space.
        for (;;) {
            if (abortFlag.load(std::memory_order_acquire))
                return;
            bool pending = false;
            for (ThreadId t = 0; t < k_; ++t) {
                drainStream(t, ~0ULL);
                pending |= prod[t].cursor < plans[t].seq.size() ||
                           !prod[t].overflow.empty();
            }
            if (!pending)
                return;
            std::this_thread::yield();
        }
    };

    // ---- consumers -----------------------------------------------------
    // At least one: live-parallel recordings select this engine even
    // when no --lg-threads was requested (see ReplayPlatform ctor).
    const std::uint32_t nConsumers = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(cfg_.lgThreads, k_));

    // Failure-containment test hook (fault point "lg.fail"): panic on
    // the consumer thread that owns the named lifeguard stream.
    ThreadId failTid = kInvalidThread;
    if (std::optional<std::uint64_t> v = faultValue("lg.fail"))
        failTid = static_cast<ThreadId>(*v);

    // LockSet writes metadata from application-*read* handlers (it
    // violates condition 2 of section 5.3), so unordered cross-thread
    // read pairs may touch the same granule state. Serialize whole
    // steps; the delivery protocol still orders everything with arcs.
    std::mutex stepMutex;
    const bool serializeSteps =
        (lifeguardKind_ == LifeguardKind::kLockSet);

    auto consumerBody = [&](std::uint32_t slot) {
        std::vector<std::pair<ThreadId, LifeguardCore *>> mine;
        std::vector<Cycle> nows;
        for (ThreadId t = slot; t < k_; t += nConsumers) {
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
                    panic("lg.fail: injected failure on lifeguard thread %u",
                          mine[i].first);
                std::uint64_t before = core->stats.recordsProcessed;
                if (serializeSteps) {
                    std::lock_guard<std::mutex> g(stepMutex);
                    core->step(nows[i], ~Cycle{0});
                } else {
                    core->step(nows[i], ~Cycle{0});
                }
                nows[i] = std::max(nows[i], core->busyUntil);
                progressed |=
                    (core->stats.recordsProcessed != before);
            }
            if (all_done)
                return;
            if (!progressed)
                std::this_thread::yield();
        }
    };

    // ---- supervisor ----------------------------------------------------
    std::vector<std::thread> workers;
    workers.reserve(1 + nConsumers);
    liveWorkers.store(1 + nConsumers, std::memory_order_relaxed);
    workers.emplace_back([&] {
        try {
            producerBody();
        } catch (...) {
            noteFailure();
        }
        liveWorkers.fetch_sub(1, std::memory_order_release);
    });
    for (std::uint32_t slot = 0; slot < nConsumers; ++slot) {
        workers.emplace_back([&, slot] {
            try {
                consumerBody(slot);
            } catch (...) {
                noteFailure();
            }
            liveWorkers.fetch_sub(1, std::memory_order_release);
        });
    }

    // The serial watchdog samples per-core stats; those are host-racy
    // here, so the concurrent signature uses only atomics: applied ops,
    // ring publish/pop counts, the progress table, version counters.
    auto signature = [&] {
        std::uint64_t sig = appliedOps.load(std::memory_order_relaxed);
        for (ThreadId t = 0; t < k_; ++t) {
            sig += rings[t].published();
            sig += rings[t].popped();
            sig += progress_->done(t);
        }
        sig += versions_.stats.counter("produced").value();
        sig += versions_.stats.counter("consumed").value();
        return sig;
    };
    ProgressWatchdog watchdog(
        std::max<std::uint64_t>(1000, cfg_.stallWatchdogIters / 1000));
    bool stalled = false;
    while (liveWorkers.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (!stalled && watchdog.poll(signature())) {
            stalled = true;
            abortFlag.store(true, std::memory_order_release);
        }
    }
    for (std::thread &w : workers)
        w.join();

    if (stalled) {
        std::fprintf(stderr,
                     "=== concurrent replay watchdog state dump ===\n"
                     "applied ops: %llu\n",
                     static_cast<unsigned long long>(
                         appliedOps.load(std::memory_order_relaxed)));
        for (ThreadId t = 0; t < k_; ++t) {
            std::fprintf(
                stderr,
                "stream %u: plan %zu/%zu published=%llu popped=%llu "
                "overflow=%zu done=%llu finished=%d\n",
                t, prod[t].cursor, plans[t].seq.size(),
                static_cast<unsigned long long>(rings[t].published()),
                static_cast<unsigned long long>(rings[t].popped()),
                prod[t].overflow.size(),
                static_cast<unsigned long long>(progress_->done(t)),
                lgCores_[t]->finished() ? 1 : 0);
        }
        panic("concurrent replay watchdog: no forward progress "
              "(journal/lifeguard divergence or hand-off bug)");
    }
    if (firstError)
        std::rethrow_exception(firstError);

    RunResult result;
    Cycle total = 0;
    result.app = reader_.footer().app; // no application ran: recorded
    for (auto &c : lgCores_) {
        result.lifeguard.push_back(c->stats);
        result.versionStallRetries +=
            c->enforcer().stats.get("version_stalls");
        total = std::max(total, c->busyUntil);
    }
    result.totalCycles = total;
    result.versionsProduced = versions_.stats.counter("produced").value();
    result.versionsConsumed = versions_.stats.counter("consumed").value();
    result.violationCount = lifeguard_->violations.count();
    result.violationFingerprint = lifeguard_->violations.setFingerprint();
    result.shadowFingerprint = shadowFingerprint();

    if (cfg_.verify)
        verifyResultsAgainstFooter(result);
    return result;
}

void
ReplayPlatform::verifyResultsAgainstFooter(const RunResult &result) const
{
    const trace::TraceFooter &f = reader_.footer();
    auto mismatch = [](const char *what, std::uint64_t got,
                       std::uint64_t want) {
        panic("concurrent replay diverged from the recording: %s = "
              "%llu, recorded %llu",
              what, static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want));
    };
    if (result.shadowFingerprint != f.shadowFingerprint)
        mismatch("shadow fingerprint", result.shadowFingerprint,
                 f.shadowFingerprint);
    // Violation *reports* are a delivery-schedule quantity: the
    // Idempotent Filters absorb repeated checks, and how many repeats
    // they absorb depends on stall-flush timing, which free-running
    // consumers cannot reproduce. A first occurrence can never be
    // absorbed, though, so found-any must agree (the distinct-set
    // fingerprint is compared serial-vs-concurrent by the differential
    // matrix; the footer only records the count).
    if ((result.violationCount == 0) != (f.violations == 0))
        mismatch("violations (found-any)", result.violationCount,
                 f.violations);
    // The distinct-set fingerprint *is* schedule-invariant (unlike the
    // report count), so footers that carry one pin it exactly.
    if (f.hasViolationFingerprint &&
        result.violationFingerprint != f.violationFingerprint)
        mismatch("violation fingerprint", result.violationFingerprint,
                 f.violationFingerprint);
    if (result.versionsProduced != f.versionsProduced)
        mismatch("versions produced", result.versionsProduced,
                 f.versionsProduced);
    if (result.versionsConsumed != f.versionsConsumed)
        mismatch("versions consumed", result.versionsConsumed,
                 f.versionsConsumed);
    PARALOG_ASSERT(result.lifeguard.size() == f.lifeguard.size(),
                   "recorded lifeguard thread count mismatch");
    for (std::size_t i = 0; i < f.lifeguard.size(); ++i) {
        if (result.lifeguard[i].recordsProcessed !=
            f.lifeguard[i].recordsProcessed)
            mismatch("records processed",
                     result.lifeguard[i].recordsProcessed,
                     f.lifeguard[i].recordsProcessed);
    }
}

} // namespace paralog
