/**
 * @file
 * Host-parallel replay engine. Only the producer lives here: the
 * calling thread re-applies the recorded journal and publishes sealed
 * records to the lifeguard cores' consumer threads through the shared
 * ConsumerPool (core/consumer_pool.hpp, also behind
 * core/platform_concurrent.cpp), then supervises them to completion.
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
 * accesses. The results therefore match the recording at
 * ResultTier::kResults (core/run_stats.hpp), checked against the trace
 * footer and by the differential test matrix.
 */

#include "core/replay.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "core/consumer_pool.hpp"
#include "core/publication_plan.hpp"

namespace paralog {

RunResult
ReplayPlatform::runConcurrent()
{
    std::vector<StreamPlan> plans = buildPublicationPlans(cfg_.path, k_);
    std::vector<std::size_t> cursor(k_, 0); ///< next plan entry to publish

    // LockSet writes metadata from application-*read* handlers (it
    // violates condition 2 of section 5.3), so unordered cross-thread
    // read pairs may touch the same granule state: serialize whole
    // steps.
    ConsumerPool pool(
        {"concurrent replay", cfg_.lgThreads,
         lifeguardKind_ == LifeguardKind::kLockSet, cfg_.stallWatchdogIters,
         [&](SignatureFold &fold) {
             for (std::size_t c : cursor)
                 fold(c);
         },
         [&](ThreadId t) {
             std::fprintf(stderr, "plan %u: %zu/%zu published\n", t,
                          cursor[t], plans[t].seq.size());
         }},
        captures_, lgCores_, *progress_, versions_);

    // Seal test once every op up to @p applied_gseq has been applied:
    // the head is the stream's next plan entry, published once its
    // prefix-maxed seal is reached.
    auto sealedBy = [&](std::uint64_t applied_gseq) {
        return [&, applied_gseq](ThreadId t, const EventRecord &head) {
            const StreamPlan &plan = plans[t];
            std::size_t &c = cursor[t];
            if (c < plan.seq.size() && plan.pubSeal[c] > applied_gseq)
                return false;
            PARALOG_ASSERT(c < plan.seq.size() &&
                               head.rid == plan.seq[c].rid &&
                               head.type == plan.seq[c].type,
                           "concurrent replay: stream %u diverged from its "
                           "publication plan at entry %zu",
                           t, c);
            ++c;
            return true;
        };
    };

    // A panic here unwinds through the pool, whose destructor stops and
    // joins the consumers first.
    while (!pool.aborted()) {
        // Global journal order: the op with the smallest gseq.
        ReplayCore *best = nullptr;
        std::uint64_t best_gseq = ~0ULL;
        for (auto &p : replayCores_) {
            if (const trace::TraceOp *op = p->peek()) {
                if (op->gseq < best_gseq) {
                    best = p.get();
                    best_gseq = op->gseq;
                }
            }
        }
        if (!best)
            break;
        best->apply();
        pool.publish(sealedBy(best_gseq));
    }
    // The exhausted journal seals everything.
    pool.flush([&] { pool.publish(sealedBy(~0ULL)); });
    pool.finish();

    // As in the serial engine, the run ends no earlier than the
    // recorded application exit, which journals no op.
    Cycle total = 0;
    for (auto &c : lgCores_)
        total = std::max(total, c->busyUntil);
    for (const AppThreadStats &a : reader_.footer().result.app)
        total = std::max(total, a.doneAt);
    RunResult result = collectResult(total);
    checkFooter(result, ResultTier::kResults);
    return result;
}

} // namespace paralog
