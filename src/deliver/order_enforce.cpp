#include "deliver/order_enforce.hpp"

#include "common/logging.hpp"

namespace paralog {

const char *
toString(DeliverStatus st)
{
    switch (st) {
      case DeliverStatus::kDelivered:    return "delivered";
      case DeliverStatus::kEmpty:        return "empty";
      case DeliverStatus::kDepStall:     return "dep-stall";
      case DeliverStatus::kCaStall:      return "ca-stall";
      case DeliverStatus::kVersionStall: return "version-stall";
    }
    return "?";
}

OrderEnforcer::OrderEnforcer(ThreadId tid, CaptureUnit &unit,
                             ProgressTable &progress, CaManager &ca,
                             VersionAvailable version_available)
    : tid_(tid), unit_(unit), progress_(progress), ca_(ca),
      versionAvailable_(std::move(version_available))
{
}

bool
OrderEnforcer::issuerBarrierSatisfied(const CaBroadcast &b) const
{
    for (ThreadId t = 0; t < progress_.size(); ++t) {
        if (t == tid_)
            continue;
        RecordId arrival = (t < b.arrivalRid.size()) ? b.arrivalRid[t]
                                                     : kInvalidRecord;
        if (arrival == kInvalidRecord)
            continue; // thread was not running: nothing to wait for
        if (progress_.done(t) < arrival)
            return false;
    }
    return true;
}

DeliverStatus
OrderEnforcer::tryDeliverBatch(BatchItem &out, bool continuation)
{
    // Wait-state bookkeeping for the platform's progress watchdog.
    // Continuation checks are not authoritative (they merely end a
    // batch), so only the per-step check updates it.
    auto note = [this, continuation](DeliverStatus st,
                                     const EventRecord *r) {
        if (continuation)
            return st;
        lastStatus_ = st;
        if (st == DeliverStatus::kDelivered ||
            st == DeliverStatus::kEmpty) {
            stallRid_ = kInvalidRecord;
            stallRetries_ = 0;
        } else {
            RecordId rid = r ? r->rid : kInvalidRecord;
            if (rid == stallRid_) {
                ++stallRetries_;
            } else {
                stallRid_ = rid;
                stallRetries_ = 1;
            }
        }
        return st;
    };

    // Waiter half of a ConflictAlert barrier: after consuming the CA
    // record (accelerators flushed), stall until the issuing thread's
    // lifeguard has processed the high-level event itself.
    if (waitingForIssuer_) {
        if (progress_.done(waitIssuer_) <= waitIssuerRid_) {
            if (!continuation)
                caWaitCtr_.inc();
            return note(DeliverStatus::kCaStall, nullptr);
        }
        waitingForIssuer_ = false;
        noteWaiterPassed(waitSeq_);
    }

    const EventRecord *rec = unit_.peek();
    if (!rec)
        return note(DeliverStatus::kEmpty, nullptr);

    // Inter-thread dependence arcs (the core ordering mechanism).
    for (const DepArc &arc : rec->arcs()) {
        if (!progress_.satisfied(arc)) {
            if (!continuation) {
                depStallsCtr_.inc();
                stallGapHist_.sample(arc.rid + 1 -
                                     progress_.done(arc.tid));
            }
            return note(DeliverStatus::kDepStall, rec);
        }
    }

    // TSO: a read annotated with a consume-version must wait until the
    // writer's lifeguard produced the versioned metadata. (Produce
    // records themselves never wait here: they carry the producing
    // store's arcs instead, checked above.)
    if (rec->consumesVersion && !versionAvailable_(rec->version())) {
        if (!continuation)
            versionStallsCtr_.inc();
        return note(DeliverStatus::kVersionStall, rec);
    }

    // Issuer half of a ConflictAlert barrier: the high-level event may
    // only be processed after every other lifeguard has consumed all
    // records preceding its CA record. Copy-out lookup: the live entry
    // can be retired concurrently by other lifeguards' barrier notes.
    if (rec->caSeq != kNoCaSeq) {
        CaBroadcast b;
        bool live = ca_.lookup(rec->caSeq, b);
        if (live && !issuerBarrierSatisfied(b)) {
            if (!continuation)
                caIssuerCtr_.inc();
            return note(DeliverStatus::kCaStall, rec);
        }
        if (live)
            noteIssuerDelivered(rec->caSeq);
    }

    note(DeliverStatus::kDelivered, rec);
    out.rec = rec;
    out.racesSyscall = false;

    if (rec->type == EventType::kCaBegin ||
        rec->type == EventType::kCaEnd) {
        CaBroadcast b;
        bool live = ca_.lookup(rec->value, b);
        ThreadId issuer = live ? b.issuer : kInvalidThread;
        // Maintain the hardware range table for remote syscalls.
        if (rec->caKind == HighLevelKind::kSyscallBegin &&
            issuer != kInvalidThread) {
            ranges_.insert(issuer, rec->range());
        } else if (rec->caKind == HighLevelKind::kSyscallEnd &&
                   issuer != kInvalidThread) {
            ranges_.remove(issuer);
        }
        if (live && progress_.done(b.issuer) <= b.issuerEventRid) {
            waitingForIssuer_ = true;
            waitSeq_ = b.seq;
            waitIssuer_ = b.issuer;
            waitIssuerRid_ = b.issuerEventRid;
        } else if (live) {
            noteWaiterPassed(b.seq);
        }
    } else if (rec->isMemAccess()) {
        out.racesSyscall = ranges_.races(rec->addr, rec->size);
        if (out.racesSyscall)
            syscallRacesCtr_.inc();
    }

    return DeliverStatus::kDelivered;
}

void
OrderEnforcer::commitDelivered()
{
    unit_.dropFront();
    deliveredCtr_.inc();
}

DeliverStatus
OrderEnforcer::tryDeliver(Delivery &out)
{
    BatchItem item;
    DeliverStatus st = tryDeliverBatch(item, false);
    if (st != DeliverStatus::kDelivered)
        return st;
    out.racesSyscall = item.racesSyscall;
    out.rec = unit_.pop();
    deliveredCtr_.inc();
    return st;
}

void
OrderEnforcer::noteWaiterPassed(std::uint64_t seq)
{
    ca_.noteWaiterPassed(seq);
}

void
OrderEnforcer::noteIssuerDelivered(std::uint64_t seq)
{
    ca_.noteIssuerDelivered(seq);
}

} // namespace paralog
