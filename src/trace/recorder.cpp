#include "trace/recorder.hpp"

#include "common/varint.hpp"

namespace paralog::trace {

TraceRecorder::TraceRecorder(const std::string &path,
                             const TraceConfig &cfg,
                             std::uint32_t format)
    : writer_(path, cfg, format), threads_(cfg.appThreads)
{
}

std::vector<std::uint8_t> &
TraceRecorder::beginOp(OpCode op, ThreadId tid)
{
    PerThread &t = threads_[tid];
    ++gseq_;
    std::vector<std::uint8_t> &body = writer_.ops(tid).beginOp(
        static_cast<std::uint8_t>(op), gseq_ - t.lastGseq,
        now_ - t.lastCycle, lgSteps_ - t.lastLgStep);
    t.lastGseq = gseq_;
    t.lastCycle = now_;
    t.lastLgStep = lgSteps_;
    return body;
}

void
TraceRecorder::onRetire(ThreadId tid, RecordId retired)
{
    std::vector<std::uint8_t> &b = beginOp(OpCode::kRetire, tid);
    PerThread &t = threads_[tid];
    putVarint(b, retired - t.lastRetired);
    t.lastRetired = retired;
    writer_.endOp(tid, false);
}

void
TraceRecorder::appendRecord(OpCode op, ThreadId tid, const EventRecord &rec,
                            std::uint32_t charged_bytes,
                            const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> &b = beginOp(op, tid);
    putVarint(b, charged_bytes);
    encodeSideband(rec, threads_[tid].lastRid, b);
    b.insert(b.end(), payload.begin(), payload.end());
    writer_.endOp(tid, true);
}

void
TraceRecorder::onAppend(ThreadId tid, const EventRecord &rec,
                        std::uint32_t charged_bytes,
                        const std::vector<std::uint8_t> &payload)
{
    appendRecord(OpCode::kAppend, tid, rec, charged_bytes, payload);
}

void
TraceRecorder::onAppendCa(ThreadId tid, const EventRecord &rec,
                          std::uint32_t charged_bytes,
                          const std::vector<std::uint8_t> &payload)
{
    appendRecord(OpCode::kAppendCa, tid, rec, charged_bytes, payload);
}

void
TraceRecorder::onAttachArcs(ThreadId tid, RecordId rid,
                            const std::vector<DepArc> &kept)
{
    std::vector<std::uint8_t> &b = beginOp(OpCode::kAttachArcs, tid);
    putVarint(b, rid);
    putVarint(b, kept.size());
    for (const DepArc &a : kept) {
        b.push_back(static_cast<std::uint8_t>(a.tid));
        putVarint(b, a.rid);
    }
    writer_.endOp(tid, false);
}

void
TraceRecorder::onAnnotateConsume(ThreadId tid, RecordId rid,
                                 const VersionTag &v)
{
    std::vector<std::uint8_t> &b = beginOp(OpCode::kAnnotateConsume, tid);
    putVarint(b, rid);
    putVarint(b, v.tid);
    putVarint(b, v.rid);
    writer_.endOp(tid, false);
}

void
TraceRecorder::onInsertProduce(ThreadId tid, RecordId store_rid,
                               const VersionTag &v, Addr addr,
                               std::uint8_t size)
{
    std::vector<std::uint8_t> &b = beginOp(OpCode::kInsertProduce, tid);
    putVarint(b, store_rid);
    putVarint(b, v.tid);
    putVarint(b, v.rid);
    putVarint(b, addr);
    b.push_back(size);
    writer_.endOp(tid, false);
}

void
TraceRecorder::onVisibilityLimit(ThreadId tid, RecordId limit)
{
    std::vector<std::uint8_t> &b = beginOp(OpCode::kVisLimit, tid);
    // kInvalidRecord ("everything visible") encodes as 0.
    putVarint(b, limit == kInvalidRecord ? 0 : limit + 1);
    writer_.endOp(tid, false);
}

void
TraceRecorder::onCaBroadcast(const CaBroadcast &b)
{
    std::vector<std::uint8_t> &o = beginOp(OpCode::kCaBroadcast, b.issuer);
    putVarint(o, b.seq);
    putVarint(o, b.issuerEventRid);
    o.push_back(static_cast<std::uint8_t>(b.kind));
    putVarint(o, b.range.begin);
    putVarint(o, b.range.size());
    putVarint(o, b.arrivalRid.size());
    for (RecordId r : b.arrivalRid)
        putVarint(o, r == kInvalidRecord ? 0 : r + 1);
    writer_.endOp(b.issuer, false);
}

bool
TraceRecorder::finalize(const RunResult &result)
{
    TraceFooter footer;
    footer.result = result;
    footer.hasViolationFingerprint = true;
    return writer_.finalize(footer);
}

} // namespace paralog::trace
