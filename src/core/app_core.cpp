#include "core/app_core.hpp"

#include "common/logging.hpp"

namespace paralog {

AppCore::AppCore(CoreId core, std::unique_ptr<ThreadContext> tc,
                 CaptureUnit *capture, Interpreter &interp,
                 MemorySystem &mem, const SimConfig &cfg,
                 bool monitoring_enabled, CaBroadcastFn ca_broadcast)
    : core_(core), tc_(std::move(tc)), capture_(capture), interp_(interp),
      mem_(mem), cfg_(cfg), monitoringEnabled_(monitoring_enabled),
      caBroadcast_(std::move(ca_broadcast))
{
}

void
AppCore::step(Cycle now)
{
    if (finished_)
        return;

    // Back-pressure: the log buffer is full, the application core
    // stalls (section 2: "if the log buffer is full, then the
    // application core stalls").
    if (monitoringEnabled_ && capture_ && !capture_->canAppend()) {
        stats.logFullStall += cfg_.retryInterval;
        busyUntil = now + cfg_.retryInterval;
        return;
    }

    interp_.step(*tc_, core_, now, out_);
    Interpreter::StepOutcome &out = out_;

    switch (out.kind) {
      case Interpreter::StepOutcome::Kind::kDone:
        finished_ = true;
        stats.doneAt = now;
        return;

      case Interpreter::StepOutcome::Kind::kBlocked:
        switch (tc_->blockReason) {
          case BlockReason::kLock:
            stats.lockStall += out.latency;
            break;
          case BlockReason::kBarrier:
            stats.barrierStall += out.latency;
            break;
          case BlockReason::kDrain:
            stats.drainStall += out.latency;
            break;
          case BlockReason::kStoreBuffer:
            stats.storeBufStall += out.latency;
            break;
          default:
            stats.execCycles += out.latency;
            break;
        }
        busyUntil = now + out.latency;
        return;

      case Interpreter::StepOutcome::Kind::kRetired:
        break;
    }

    Cycle latency = out.latency;
    RecordId rid = out.event.record.rid;

    ++tc_->retired;
    ++stats.retired;
    mem_.setCoreCounter(core_, tc_->retired);

    if (monitoringEnabled_ && capture_) {
        capture_->setRetired(tc_->retired);
        // Live-parallel publication seal input: the record's append
        // cycle equals the retiring access's AccessTag::retireCycle
        // (Interpreter::tagFor stamps the same `now`), which is what
        // MemorySystem::addArcFrom compares store-buffer entries
        // against when it raises a version request.
        out.event.record.appendCycle = now;
        // append() moves the record into the log buffer: read what the
        // ConflictAlert broadcast needs first.
        const bool broadcast = out.event.caBroadcast && caBroadcast_;
        const HighLevelKind ca_kind = out.event.caKind;
        const AddrRange range = out.event.record.range();
        bool appended = capture_->append(std::move(out.event));
        if (appended && broadcast) {
            latency += caBroadcast_(tc_->tid(), rid, ca_kind, range);
            stats.caAckCycles += latency - out.latency;
        }
    }

    stats.execCycles += out.latency;
    busyUntil = now + std::max<Cycle>(1, latency);
}

} // namespace paralog
