#include "core/replay.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"

namespace paralog {

using trace::OpCode;
using trace::TraceOp;

ReplayCore::ReplayCore(ThreadId tid, trace::TraceReader &reader,
                       CaptureUnit &unit, CaManager &ca,
                       const EventFilter *filter)
    : tid_(tid), reader_(reader), unit_(unit), ca_(ca), filter_(filter),
      stream_(reader.opStream(tid))
{
}

void
ReplayCore::endOfStream()
{
    if (!reader_.ok())
        panic("replay: %s", reader_.error().c_str());
    exhausted_ = true;
}

void
ReplayCore::apply()
{
    PARALOG_ASSERT(hasPending_, "replay apply without a pending op");
    TraceOp &op = pending_;
    switch (op.op) {
      case OpCode::kRetire:
        unit_.setRetired(op.retired);
        break;
      case OpCode::kAppend:
      case OpCode::kAppendCa:
        // Cross-lifeguard replays re-filter the recorded stream for the
        // new monitor's registered interests, mirroring the live
        // capture unit: dropped records' arcs carry forward to the next
        // surviving record so ordering stays conservative.
        if (filter_ && !filter_->wants(op.rec)) {
            for (const DepArc &a : op.rec.arcs())
                arcsCarry_.push_back(a);
            droppedRids_.push_back(op.rec.rid);
            break;
        }
        if (filter_ && !arcsCarry_.empty()) {
            std::vector<DepArc> &arcs = op.rec.mutableArcs();
            arcs.insert(arcs.begin(), arcsCarry_.begin(), arcsCarry_.end());
            arcsCarry_.clear();
        }
        unit_.replayAppend(std::move(op.rec), op.chargedBytes,
                           op.op == OpCode::kAppendCa);
        break;
      case OpCode::kAttachArcs:
        // Three cases for the target record: still pending (attach, the
        // common one), dropped by *this replay's* re-filter (carry the
        // arcs forward, as a live capture of the new lifeguard would),
        // or absent from the recorded stream too (the recording's own
        // filter dropped it — the arcs were live-carried and already
        // sit inside a later journalled append; adding them again would
        // double-count).
        if (filter_ && !unit_.buffer().findByRid(op.rid) &&
            std::binary_search(droppedRids_.begin(), droppedRids_.end(),
                               op.rid)) {
            for (const DepArc &a : op.arcs)
                arcsCarry_.push_back(a);
            break;
        }
        unit_.replayAttachArcs(op.rid, op.arcs);
        break;
      case OpCode::kAnnotateConsume:
        unit_.annotateConsume(op.rid, op.version);
        break;
      case OpCode::kInsertProduce:
        unit_.insertProduceBefore(op.rid, op.version, op.addr, op.size);
        break;
      case OpCode::kVisLimit:
        unit_.setVisibilityLimit(op.visLimit);
        break;
      case OpCode::kCaBroadcast:
        // Mirrors Platform::caBroadcast: restore the barrier entry and
        // annotate the issuer's pending high-level record.
        if (EventRecord *rec =
                unit_.buffer().findByRid(op.ca.issuerEventRid))
            rec->caSeq = op.ca.seq;
        ca_.injectBroadcast(std::move(op.ca));
        break;
    }
    hasPending_ = false;
}

ReplayPlatform::ReplayPlatform(ReplayConfig cfg)
    : cfg_(std::move(cfg)),
      reader_(cfg_.path),
      lifeguardKind_(cfg_.lifeguard)
{
    if (!reader_.ok())
        panic("replay: %s", reader_.error().c_str());
    const trace::TraceConfig &tc = reader_.config();
    PARALOG_ASSERT(tc.mode == MonitorMode::kParallel,
                   "replay requires a parallel-monitoring recording");

    sim_ = tc.toSimConfig();
    k_ = tc.appThreads;
    if (!cfg_.lifeguardOverride)
        lifeguardKind_ = tc.lifeguard;
    sameLifeguard_ = (lifeguardKind_ == tc.lifeguard);

    if (concurrent()) {
        // Cross-lifeguard replays re-filter streams and use a fresh
        // timed memory hierarchy; both are engineered for the serial
        // scheduler. Restrict the host-parallel engine to the recorded
        // lifeguard, where delivery is fully protocol-enforced.
        PARALOG_ASSERT(sameLifeguard_,
                       "concurrent replay (--lg-threads) requires "
                       "replaying the recorded lifeguard");
        // High-level handlers (allocation fills, range checks) touch
        // metadata of whole ranges non-atomically; their exclusivity
        // rests on the two-sided ConflictAlert barriers. A recording
        // made without them cannot be monitored concurrently.
        PARALOG_ASSERT(sim_.conflictAlerts,
                       "concurrent replay requires a recording made "
                       "with ConflictAlert broadcasts enabled");
    }

    lifeguard_ = makeLifeguard(lifeguardKind_, k_);
    if (concurrent())
        lifeguard_->shadow().setConcurrent(true);
    progress_ = std::make_unique<ProgressTable>(k_);
    caMgr_ = std::make_unique<CaManager>(k_);

    if (!sameLifeguard_) {
        // Fresh metadata hierarchy: plausible timing, no recorded
        // latencies to consume (the recording's latency sideband
        // matches the recorded lifeguard's access sequence only).
        mem_ = std::make_unique<MemorySystem>(sim_, sim_.totalCores());

        const LifeguardPolicy policy = lifeguard_->policy();
        std::uint8_t bits = tc.filterBits;
        if ((policy.wantsRegOps && !(bits & trace::kFilterRegOps)) ||
            (policy.wantsJumps && !(bits & trace::kFilterJumps)) ||
            (!policy.heapOnly && (bits & trace::kFilterHeapOnly))) {
            warn("replay: the recording's event filter (%s) captured "
                 "fewer event classes than %s registers for; results "
                 "are approximate",
                 toString(tc.lifeguard), toString(lifeguardKind_));
        }
        filter_ = policyFilter(policy);
    }

    captures_.reserve(k_);
    lgCores_.reserve(k_);
    replayCores_.reserve(k_);
    latStreams_.reserve(k_);
    for (ThreadId t = 0; t < k_; ++t) {
        // The capture units carry no filter of their own: same-monitor
        // replays feed the journal verbatim (it already holds the
        // recorded post-filter records); cross-monitor replays
        // re-filter in the ReplayCore.
        captures_.push_back(
            std::make_unique<CaptureUnit>(t, sim_, EventFilter{}));
        replayCores_.push_back(std::make_unique<ReplayCore>(
            t, reader_, *captures_[t], *caMgr_,
            sameLifeguard_ ? nullptr : &filter_));
    }
    for (ThreadId t = 0; t < k_; ++t) {
        lgCores_.push_back(std::make_unique<LifeguardCore>(
            k_ + t, t, sim_, *captures_[t], *progress_, *caMgr_,
            *lifeguard_, sameLifeguard_ ? nullptr : mem_.get(),
            versions_, 1));
        // The concurrent engine relaxes timing: no latency oracle (and
        // no memory system), so metadata accesses are untimed — the
        // recorded latency sideband describes the serial schedule's
        // access sequence, which concurrent delivery does not reproduce.
        if (sameLifeguard_ && !concurrent()) {
            latStreams_.push_back(reader_.latencyStream(t));
            lgCores_.back()->ctx().setMetaLatencyOracle(
                [this, t]() -> Cycle {
                    Cycle latency = 0;
                    if (latStreams_[t].next(latency))
                        return latency;
                    if (!reader_.ok())
                        panic("replay: %s", reader_.error().c_str());
                    panic("replay diverged: lifeguard %u performed "
                          "more metadata accesses than recorded",
                          t);
                });
        }
    }
}

ReplayPlatform::~ReplayPlatform() = default;

RunResult
ReplayPlatform::run()
{
    if (concurrent())
        return runConcurrent();
    SerialScheduler sched("replay", cfg_.maxCycles, cfg_.stallWatchdogIters,
                          lgCores_, *progress_, versions_);
    // The application's last step (its exit) journals no op, so the
    // journal can run dry before the recorded application exited; the
    // live run ended no earlier than that exit.
    Cycle total = sched.run(*this);
    for (const AppThreadStats &a : reader_.footer().result.app)
        total = std::max(total, a.doneAt);
    RunResult result = collectResult(total);

    // The oracle panics when a lifeguard performs *more* metadata
    // accesses than recorded; the opposite divergence — recorded
    // latencies left unconsumed — is checked here.
    for (ThreadId t = 0; t < latStreams_.size(); ++t) {
        if (!latStreams_[t].exhausted())
            panic("replay diverged: lifeguard %u performed fewer "
                  "metadata accesses than recorded",
                  t);
    }

    if (sameLifeguard_)
        checkFooter(result, ResultTier::kExact);
    return result;
}

bool
ReplayPlatform::producersDone() const
{
    return std::all_of(replayCores_.begin(), replayCores_.end(),
                       [](auto &p) { return p->done(); });
}

void
ReplayPlatform::produce(Cycle now, std::uint64_t lg_steps)
{
    // Apply every op due at `now` whose recorded lifeguard-step stamp
    // has been reached, in global journal order. Ops stamped with a
    // later step count were recorded in a later iteration at this
    // cycle, after lifeguard steps that have not run yet. (The stamps
    // describe the *recorded* lifeguard's cadence; replaying another
    // lifeguard applies ops purely by cycle.)
    for (;;) {
        ReplayCore *best = nullptr;
        std::uint64_t best_gseq = ~0ULL;
        for (auto &p : replayCores_) {
            const TraceOp *op = p->peek();
            if (op && op->cycle <= now &&
                (!sameLifeguard_ || op->lgStep <= lg_steps) &&
                op->gseq < best_gseq) {
                best = p.get();
                best_gseq = op->gseq;
            }
        }
        if (!best)
            return;
        best->apply();
    }
}

void
ReplayPlatform::foldState(SignatureFold &fold, std::uint64_t lg_steps) const
{
    // Ops wait on the lifeguard-step count, so a step is progress while
    // any op is pending, and only then: with every journal exhausted, a
    // stalled lifeguard's retries are not (as in a live run whose
    // application has finished).
    if (!producersDone())
        fold(lg_steps);
}

void
ReplayPlatform::dumpStream(ThreadId tid) const
{
    const TraceOp *op = replayCores_[tid]->peek();
    if (!op) {
        std::fprintf(stderr, "replay %u: journal exhausted\n", tid);
        return;
    }
    std::fprintf(stderr,
                 "replay %u: next op=%u gseq=%llu cycle=%llu lgStep=%llu\n",
                 tid, static_cast<unsigned>(op->op),
                 static_cast<unsigned long long>(op->gseq),
                 static_cast<unsigned long long>(op->cycle),
                 static_cast<unsigned long long>(op->lgStep));
}

RunResult
ReplayPlatform::collectResult(Cycle total_cycles)
{
    RunResult result;
    result.totalCycles = total_cycles;
    result.app = reader_.footer().result.app; // no application ran: recorded
    collectLifeguardResult(result, lgCores_, versions_, *lifeguard_);
    result.shadowFingerprint = heapGlobalsFingerprint(lifeguard_->shadow());
    return result;
}

void
ReplayPlatform::checkFooter(const RunResult &result, ResultTier tier) const
{
    RunResult want = reader_.footer().result;
    // Recordings older than the violation fingerprint pin nothing there.
    if (!reader_.footer().hasViolationFingerprint)
        want.violationFingerprint = result.violationFingerprint;
    const std::string diff = resultMismatch(tier, result, want);
    if (!diff.empty())
        panic("replay diverged from the recording: %s", diff.c_str());
}

} // namespace paralog
