#include "core/lifeguard_core.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"

namespace paralog {

namespace {

/// Max records one step drains through the batched delivery fast path
/// (OrderEnforcer::tryDeliverBatch). Purely a host wall-clock bound:
/// simulated timing and results are identical for any value >= 1 (the
/// batch never spans a stall, and per-record costs accumulate exactly
/// as single-pop delivery would).
constexpr std::uint32_t kDeliverBatchMax = 16;

} // namespace

LifeguardCore::LifeguardCore(CoreId core, ThreadId tid, const SimConfig &cfg,
                             CaptureUnit &capture, ProgressTable &progress,
                             CaManager &ca, Lifeguard &lifeguard,
                             MemorySystem *mem, VersionStore &versions,
                             std::uint32_t done_records_needed)
    : core_(core), tid_(tid), cfg_(cfg), capture_(capture),
      progress_(progress), lifeguard_(lifeguard),
      accel_(cfg, lifeguard.policy()),
      enforcer_(tid, capture, progress, ca,
                [&versions](const VersionTag &v) {
                    return versions.available(v);
                }),
      ctx_(lifeguard.shadow(), accel_.mtlb(), versions, mem, core),
      doneNeeded_(done_records_needed)
{
}

void
LifeguardCore::dumpState() const
{
    std::fprintf(stderr, "  stream: size=%zu visLimit=%llu done=%llu\n",
                 capture_.buffer().size(),
                 static_cast<unsigned long long>(capture_.visibilityLimit()),
                 static_cast<unsigned long long>(progress_.done(tid_)));
    std::fprintf(stderr,
                 "  wait: %s sameRecordRetries=%llu busyUntil=%llu "
                 "finished=%d processed=%llu\n",
                 toString(enforcer_.lastStatus()),
                 static_cast<unsigned long long>(
                     enforcer_.sameRecordStallRetries()),
                 static_cast<unsigned long long>(busyUntil),
                 finished() ? 1 : 0,
                 static_cast<unsigned long long>(stats.recordsProcessed));
    if (const EventRecord *front = capture_.buffer().peek()) {
        std::fprintf(stderr, "  front: type=%s rid=%llu arcs=[",
                     toString(front->type),
                     static_cast<unsigned long long>(front->rid));
        for (const DepArc &a : front->arcs())
            std::fprintf(stderr, "(%u,%llu)", a.tid,
                         static_cast<unsigned long long>(a.rid));
        std::fprintf(stderr, "] caSeq=%llu consumesV=%d\n",
                     static_cast<unsigned long long>(front->caSeq),
                     front->consumesVersion ? 1 : 0);
    }
}

Cycle
LifeguardCore::runHandlers(std::vector<LgEvent> &events)
{
    Cycle cost = 0;
    for (LgEvent &ev : events) {
        if (ev.tid == kInvalidThread) {
            // Accelerator stall-flush events carry no record identity.
            ThreadId owner = accel_.regOwner();
            ev.tid = (owner != kInvalidThread) ? owner : tid_;
            ev.rid = lastProcessed_;
        }
        ctx_.beginEvent();
        lifeguard_.handle(ev, ctx_);
        // One handler dispatch (event decode + jump) plus the handler
        // body: instructions at 1 IPC plus metadata cache stalls.
        cost += 2 + ctx_.instrs() + ctx_.memCycles();
        ++stats.eventsHandled;
        if (ev.type == LgEventType::kThreadDone)
            ++doneSeen_;
    }
    return cost;
}

void
LifeguardCore::publishProgress()
{
    RecordId ceiling = capture_.progressCeiling();
    RecordId held = accel_.delayedMinRid();
    // Delayed advertising (section 4.2): never advertise past the
    // oldest record whose metadata effect is still pending inside an
    // accelerator.
    RecordId done = (held != kInvalidRecord && held < ceiling) ? held
                                                               : ceiling;
    progress_.publish(tid_, done);
}

Cycle
LifeguardCore::maybeStallFlush()
{
    // The section 4.2 stall-flush exists to break wait cycles by
    // publishing accurate progress. Brief stalls resolve on their own;
    // only a persistent stall forfeits accelerator state.
    ++stallStreak_;
    if (stallStreak_ < cfg_.stallFlushAfterRetries) {
        publishProgress();
        return 0;
    }
    return handleStallFlush();
}

Cycle
LifeguardCore::handleStallFlush()
{
    // Deadlock-avoidance rule of section 4.2: while stalled, flush the
    // accelerators (delivering their pending state to the lifeguard)
    // and publish an accurate progress.
    events_.clear();
    accel_.onStall(events_);
    Cycle cost = 0;
    if (!events_.empty())
        cost = runHandlers(events_);
    publishProgress();
    return cost;
}

void
LifeguardCore::enforceVersionProtocol(const EventRecord &rec)
{
    VersionStore &vs = ctx_.versions();

    if (rec.type == EventType::kProduceVersion) {
        // Liveness backstop: a lifeguard that does not implement the
        // produce handler (it never writes application metadata, or it
        // is a user lifeguard written against the porting contract)
        // must still satisfy the consumer's version wait. The snapshot
        // is exactly the current shadow contents.
        if (!vs.available(rec.version())) {
            std::uint64_t bits =
                lifeguard_.shadow().readPacked(rec.addr, rec.size);
            vs.produceBackstop(rec.version(),
                               VersionStore::Versioned{bits, rec.addr,
                                                       rec.size, false});
        }
        // Opportunistic prune: entries whose version was already
        // consumed can never be marked (the consumer ran first).
        if (pendingWriterStores_.size() >= 16) {
            pendingWriterStores_.erase(
                std::remove_if(pendingWriterStores_.begin(),
                               pendingWriterStores_.end(),
                               [&vs](const auto &p) {
                                   return !vs.available(p.first);
                               }),
                pendingWriterStores_.end());
        }
        if (vs.available(rec.version()))
            pendingWriterStores_.emplace_back(rec.version(), rec.value);
        return;
    }

    // The producing store's own handler just ran: a consumer arriving
    // later must not clobber its metadata (read-side-writer rule).
    if (rec.type == EventType::kStore && !pendingWriterStores_.empty()) {
        auto match = [&rec](const std::pair<VersionTag, RecordId> &p) {
            return p.second == rec.rid;
        };
        for (const auto &p : pendingWriterStores_) {
            if (match(p))
                vs.markWriterDone(p.first);
        }
        pendingWriterStores_.erase(
            std::remove_if(pendingWriterStores_.begin(),
                           pendingWriterStores_.end(), match),
            pendingWriterStores_.end());
    }

    // Versioned reads of metadata-irrelevant words (lock/barrier
    // records) leave their snapshot unconsumed by any handler; discard
    // it so the version store drains.
    if (rec.consumesVersion && vs.available(rec.version()))
        vs.consume(rec.version());
}

std::uint32_t
LifeguardCore::step(Cycle now, Cycle batch_horizon)
{
    if (finished())
        return 1;

    OrderEnforcer::BatchItem d;
    DeliverStatus st = enforcer_.tryDeliverBatch(d, false);

    switch (st) {
      case DeliverStatus::kEmpty:
        stats.appStall += cfg_.retryInterval;
        // A drained stream means every captured record is processed; if
        // delayed advertising still caps our progress, remote lifeguards
        // stall on state we are not even using. A momentary drain (the
        // producer refills within a retry or two) keeps its absorption;
        // genuine idleness flushes so progress becomes accurate.
        ++emptyStreak_;
        if (emptyStreak_ > 3 &&
            accel_.delayedMinRid() != kInvalidRecord) {
            busyUntil = now + cfg_.retryInterval + handleStallFlush();
        } else {
            publishProgress();
            busyUntil = now + cfg_.retryInterval;
        }
        return 1;

      case DeliverStatus::kDepStall:
        stats.depStall += cfg_.depRetryInterval;
        busyUntil = now + cfg_.depRetryInterval + maybeStallFlush();
        return 1;

      case DeliverStatus::kCaStall:
        stats.caStall += cfg_.depRetryInterval;
        busyUntil = now + cfg_.depRetryInterval + maybeStallFlush();
        return 1;

      case DeliverStatus::kVersionStall:
        stats.versionStall += cfg_.depRetryInterval;
        busyUntil = now + cfg_.depRetryInterval + maybeStallFlush();
        return 1;

      case DeliverStatus::kDelivered:
        break;
    }

    emptyStreak_ = 0;
    stallStreak_ = 0;

    // Batched delivery: drain consecutive no-stall records in one step,
    // processing each borrowed record in place. Per-record costs
    // accumulate exactly as single-pop delivery would (record i starts
    // at the running total, which is where busyUntil would have landed
    // after i-1 single-pop steps), and the batch extends only while
    // that start time stays strictly below batch_horizon — the earliest
    // time any other actor runs. Inside that window this core is the
    // only actor, so delivery checks see exactly the state the
    // unbatched engine would have seen, and the deferred progress
    // publish is in place before anyone can read it: simulated results
    // are bit-identical, only host wall-clock changes.
    Cycle cost = 0;
    std::uint32_t delivered = 0;
    for (;;) {
        ++delivered;
        ++stats.recordsProcessed;
        lastProcessed_ = d.rec->rid;

        events_.clear();
        accel_.maybeThresholdFlush(lastProcessed_, events_);
        accel_.process(*d.rec, d.racesSyscall, events_);

        Cycle c;
        if (events_.empty()) {
            // Fully absorbed in hardware: the delivery engine retires
            // compressed ~1-byte records at two per cycle.
            c = (++absorbedTick_ & 1) ? 0 : 1;
        } else {
            c = 1 + runHandlers(events_);
        }

        enforceVersionProtocol(*d.rec);

        bool was_done = (d.rec->type == EventType::kThreadDone);
        enforcer_.commitDelivered();
        cost += c;
        stats.usefulCycles += c;

        if (was_done && finished()) {
            progress_.finish(tid_);
            stats.doneAt = now + cost;
            busyUntil = now + cost;
            return delivered;
        }
        if (delivered >= kDeliverBatchMax ||
            now + cost >= batch_horizon)
            break;
        if (enforcer_.tryDeliverBatch(d, true) != DeliverStatus::kDelivered)
            break;
        // The ThreadDone that finishes this core must start its own
        // step: the run's reported cycle count is the time that step
        // begins, so batching it would compress the simulated total.
        // (Delivery without commit has no side effects; the next step
        // re-delivers it at exactly this batch's end time.)
        if (d.rec->type == EventType::kThreadDone &&
            doneSeen_ + 1 >= doneNeeded_)
            break;
    }
    publishProgress();
    busyUntil = now + cost;
    return delivered;
}

void
collectLifeguardResult(
    RunResult &result,
    const std::vector<std::unique_ptr<LifeguardCore>> &cores,
    VersionStore &versions, const Lifeguard &lifeguard)
{
    for (const auto &c : cores) {
        result.lifeguard.push_back(c->stats);
        result.versionStallRetries +=
            c->enforcer().stats.get("version_stalls");
    }
    result.versionsProduced = versions.stats.get("produced");
    result.versionsConsumed = versions.stats.get("consumed");
    result.violationCount = lifeguard.violations.count();
    result.violationFingerprint = lifeguard.violations.setFingerprint();
}

} // namespace paralog
