#include "trace/recorder.hpp"

#include "common/varint.hpp"

namespace paralog::trace {

TraceRecorder::TraceRecorder(const std::string &path,
                             const TraceConfig &cfg,
                             std::uint32_t format)
    : writer_(path, cfg, format), threads_(cfg.appThreads)
{
}

void
TraceRecorder::beginOp(OpCode op, ThreadId tid)
{
    PerThread &t = threads_[tid];
    ++gseq_;
    scratch_.clear();
    scratch_.push_back(static_cast<std::uint8_t>(op));
    putVarint(scratch_, gseq_ - t.lastGseq);
    putVarint(scratch_, now_ - t.lastCycle);
    putVarint(scratch_, lgSteps_ - t.lastLgStep);
    t.lastGseq = gseq_;
    t.lastCycle = now_;
    t.lastLgStep = lgSteps_;
}

void
TraceRecorder::commitOp(ThreadId tid, bool is_record)
{
    writer_.appendOpBytes(tid, scratch_);
    writer_.noteOp(tid, is_record);
}

void
TraceRecorder::onRetire(ThreadId tid, RecordId retired)
{
    beginOp(OpCode::kRetire, tid);
    PerThread &t = threads_[tid];
    putVarint(scratch_, retired - t.lastRetired);
    t.lastRetired = retired;
    commitOp(tid);
}

void
TraceRecorder::onAppend(ThreadId tid, const EventRecord &rec,
                        std::uint32_t charged_bytes,
                        const std::vector<std::uint8_t> &payload)
{
    beginOp(OpCode::kAppend, tid);
    putVarint(scratch_, charged_bytes);
    encodeSideband(rec, threads_[tid].lastRid, scratch_);
    scratch_.insert(scratch_.end(), payload.begin(), payload.end());
    commitOp(tid, true);
}

void
TraceRecorder::onAppendCa(ThreadId tid, const EventRecord &rec,
                          std::uint32_t charged_bytes,
                          const std::vector<std::uint8_t> &payload)
{
    beginOp(OpCode::kAppendCa, tid);
    putVarint(scratch_, charged_bytes);
    encodeSideband(rec, threads_[tid].lastRid, scratch_);
    scratch_.insert(scratch_.end(), payload.begin(), payload.end());
    commitOp(tid, true);
}

void
TraceRecorder::onAttachArcs(ThreadId tid, RecordId rid,
                            const std::vector<DepArc> &kept)
{
    beginOp(OpCode::kAttachArcs, tid);
    putVarint(scratch_, rid);
    putVarint(scratch_, kept.size());
    for (const DepArc &a : kept) {
        scratch_.push_back(static_cast<std::uint8_t>(a.tid));
        putVarint(scratch_, a.rid);
    }
    commitOp(tid);
}

void
TraceRecorder::onAnnotateConsume(ThreadId tid, RecordId rid,
                                 const VersionTag &v)
{
    beginOp(OpCode::kAnnotateConsume, tid);
    putVarint(scratch_, rid);
    putVarint(scratch_, v.tid);
    putVarint(scratch_, v.rid);
    commitOp(tid);
}

void
TraceRecorder::onInsertProduce(ThreadId tid, RecordId store_rid,
                               const VersionTag &v, Addr addr,
                               std::uint8_t size)
{
    beginOp(OpCode::kInsertProduce, tid);
    putVarint(scratch_, store_rid);
    putVarint(scratch_, v.tid);
    putVarint(scratch_, v.rid);
    putVarint(scratch_, addr);
    scratch_.push_back(size);
    commitOp(tid);
}

void
TraceRecorder::onVisibilityLimit(ThreadId tid, RecordId limit)
{
    beginOp(OpCode::kVisLimit, tid);
    // kInvalidRecord ("everything visible") encodes as 0.
    putVarint(scratch_, limit == kInvalidRecord ? 0 : limit + 1);
    commitOp(tid);
}

void
TraceRecorder::onCaBroadcast(const CaBroadcast &b)
{
    beginOp(OpCode::kCaBroadcast, b.issuer);
    putVarint(scratch_, b.seq);
    putVarint(scratch_, b.issuerEventRid);
    scratch_.push_back(static_cast<std::uint8_t>(b.kind));
    putVarint(scratch_, b.range.begin);
    putVarint(scratch_, b.range.size());
    putVarint(scratch_, b.arrivalRid.size());
    for (RecordId r : b.arrivalRid)
        putVarint(scratch_, r == kInvalidRecord ? 0 : r + 1);
    commitOp(b.issuer);
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
