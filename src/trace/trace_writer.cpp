#include "trace/trace_writer.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/varint.hpp"

namespace paralog::trace {

TraceWriter::TraceWriter(const std::string &path, const TraceConfig &cfg,
                         std::uint32_t format)
    : cfg_(cfg), format_(format), path_(path), tmpPath_(path + ".tmp"),
      ops_(cfg.appThreads), latBuf_(cfg.appThreads),
      latRun_(cfg.appThreads), opCount(cfg.appThreads, 0),
      recordCount(cfg.appThreads, 0)
{
    if (format_ != kFormatVersion && format_ != kFormatVersionV2) {
        fail("unknown trace format version " + std::to_string(format_));
        return;
    }
    // Crash safety: all writing happens to `path.tmp`; only a
    // successful finalize() fsyncs and atomically renames it to `path`.
    // An interrupted recording therefore never leaves a
    // plausible-looking truncated trace at the requested name — at
    // worst a `.tmp` leftover, which the reader rejects (no footer).
    file_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!file_) {
        fail("cannot open '" + tmpPath_ + "' for writing");
        return;
    }
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    if (file_) {
        // Abandoned mid-recording (no finalize, or a failed one):
        // close and remove the partial temp file.
        std::fclose(file_);
        file_ = nullptr;
        std::remove(tmpPath_.c_str());
    }
}

void
TraceWriter::fail(const std::string &why)
{
    if (ok_)
        error_ = why;
    ok_ = false;
}

void
TraceWriter::writeHeader()
{
    std::uint8_t h[kHeaderBytes] = {};
    const auto &magic =
        format_ == kFormatVersionV2 ? kMagicV2 : kMagic;
    std::memcpy(h, magic.data(), magic.size());
    put32le(h + 8, format_);
    put32le(h + 12, kHeaderBytes);
    h[24] = static_cast<std::uint8_t>(cfg_.workload);
    h[25] = static_cast<std::uint8_t>(cfg_.lifeguard);
    h[26] = static_cast<std::uint8_t>(cfg_.mode);
    h[27] = static_cast<std::uint8_t>(cfg_.memoryModel);
    h[28] = static_cast<std::uint8_t>(cfg_.depTracking);
    h[29] = (cfg_.conflictAlerts ? kCfgConflictAlerts : 0) |
            (cfg_.accelIT ? kCfgAccelIT : 0) |
            (cfg_.accelIF ? kCfgAccelIF : 0) |
            (cfg_.accelMTLB ? kCfgAccelMTLB : 0);
    h[30] = cfg_.filterBits;
    put32le(h + 32, cfg_.appThreads);
    // h + 36 stays 0: the reserved word (format.hpp).
    put64le(h + 40, cfg_.scale);
    put64le(h + 48, cfg_.seed);
    put64le(h + 56, cfg_.logBufferBytes);
    put64le(h + 64, totalOps_);
    put64le(h + 72, totalRecords_);
    put64le(h + 80, footerOffset_); // 0 until finalize rewrites the header
    put64le(h + 16, fnv1a(h + 24, 40));

    if (std::fwrite(h, 1, sizeof(h), file_) != sizeof(h))
        fail("short write (header)");
}

void
TraceWriter::writeChunk(std::uint32_t kind, std::uint32_t tid,
                        const std::vector<std::uint8_t> &payload)
{
    if (!ok_ || payload.empty())
        return;
    std::uint8_t h[16];
    put32le(h, kind);
    put32le(h + 4, tid);
    put32le(h + 8, static_cast<std::uint32_t>(payload.size()));
    put32le(h + 12, crc32(payload.data(), payload.size()));
    if (std::fwrite(h, 1, sizeof(h), file_) != sizeof(h) ||
        std::fwrite(payload.data(), 1, payload.size(), file_) !=
            payload.size())
        fail("short write (chunk)");
}

void
TraceWriter::flushOps(ThreadId tid)
{
    OpColumns &c = ops_[tid];
    if (ok_ && c.ops != 0) {
        if (format_ == kFormatVersionV2)
            encodeV2Payload(c, payload_);
        else if (!encodeV1Payload(c, payload_))
            fail("op columns do not interleave into their v1 size "
                 "(recorder bug)");
        writeChunk(kChunkOps, tid, payload_);
    }
    c.clear();
}

void
TraceWriter::flushLatency(ThreadId tid)
{
    writeChunk(kChunkMetaLatency, tid, latBuf_[tid]);
    latBuf_[tid].clear();
}

void
TraceWriter::endOp(ThreadId tid, bool is_record)
{
    OpColumns &c = ops_[tid];
    c.endOp();
    ++opCount[tid];
    ++totalOps_;
    if (is_record) {
        ++recordCount[tid];
        ++totalRecords_;
    }
    if (c.v1Bytes >= kChunkTargetBytes)
        flushOps(tid);
}

void
TraceWriter::writeOpsChunk(ThreadId tid,
                           const std::vector<std::uint8_t> &v1_ops)
{
    if (!ok_ || v1_ops.empty())
        return;
    if (ops_[tid].ops != 0) {
        fail("writeOpsChunk with buffered ops pending");
        return;
    }
    if (format_ == kFormatVersion) {
        writeChunk(kChunkOps, tid, v1_ops);
        return;
    }
    // The scanner splits the ops into columns; a source chunk that does
    // not scan as whole ops is malformed.
    if (!encodeOpsBlock(v1_ops.data(), v1_ops.size(), payload_)) {
        fail("op stream does not scan as v1 ops");
        return;
    }
    writeChunk(kChunkOps, tid, payload_);
}

void
TraceWriter::writeLatencyChunk(ThreadId tid,
                               const std::vector<std::uint8_t> &payload)
{
    writeChunk(kChunkMetaLatency, tid, payload);
}

void
TraceWriter::flushLatencyRun(ThreadId tid)
{
    LatencyRun &run = latRun_[tid];
    if (run.count == 0)
        return;
    putVarint(latBuf_[tid], run.latency);
    putVarint(latBuf_[tid], run.count);
    run.count = 0;
    if (latBuf_[tid].size() >= kChunkTargetBytes)
        flushLatency(tid);
}

void
TraceWriter::appendMetaLatency(ThreadId tid, Cycle latency)
{
    if (!ok_)
        return;
    LatencyRun &run = latRun_[tid];
    if (run.count > 0 && run.latency == latency) {
        ++run.count;
        return;
    }
    flushLatencyRun(tid);
    run.latency = latency;
    run.count = 1;
}

bool
TraceWriter::finalize(const TraceFooter &footer)
{
    if (!ok_ || finalized_)
        return ok_;
    for (ThreadId t = 0; t < ops_.size(); ++t)
        flushOps(t);
    for (ThreadId t = 0; t < latBuf_.size(); ++t) {
        flushLatencyRun(t);
        flushLatency(t);
    }

    finalized_ = true; // writeHeader() now records the footer offset
    const RunResult &r = footer.result;
    std::vector<std::uint8_t> f;
    putVarint(f, r.app.size());
    for (const AppThreadStats &a : r.app) {
        putVarint(f, a.execCycles);
        putVarint(f, a.logFullStall);
        putVarint(f, a.lockStall);
        putVarint(f, a.barrierStall);
        putVarint(f, a.drainStall);
        putVarint(f, a.caAckCycles);
        putVarint(f, a.storeBufStall);
        putVarint(f, a.retired);
        putVarint(f, a.programInsts);
        putVarint(f, a.doneAt);
    }
    for (ThreadId t = 0; t < cfg_.appThreads; ++t) {
        putVarint(f, t < opCount.size() ? opCount[t] : 0);
        putVarint(f, t < recordCount.size() ? recordCount[t] : 0);
    }
    putVarint(f, r.lifeguard.size());
    for (const LifeguardThreadStats &l : r.lifeguard) {
        putVarint(f, l.usefulCycles);
        putVarint(f, l.depStall);
        putVarint(f, l.caStall);
        putVarint(f, l.versionStall);
        putVarint(f, l.appStall);
        putVarint(f, l.recordsProcessed);
        putVarint(f, l.eventsHandled);
        putVarint(f, l.doneAt);
    }
    putVarint(f, r.totalCycles);
    putVarint(f, r.violationCount);
    putVarint(f, r.versionsProduced);
    putVarint(f, r.versionsConsumed);
    putVarint(f, r.versionStallRetries);
    putVarint(f, r.shadowFingerprint);
    // Additive field: old readers ignore trailing footer bytes, old
    // recordings simply lack it (migration preserves the absence).
    if (footer.hasViolationFingerprint)
        putVarint(f, r.violationFingerprint);

    long footer_at = ok_ ? std::ftell(file_) : -1;
    writeChunk(kChunkFooter, kNoThread, f);

    if (ok_) {
        // Rewrite the header with the final totals and footer offset.
        footerOffset_ =
            footer_at < 0 ? 0 : static_cast<std::uint64_t>(footer_at);
        if (std::fseek(file_, 0, SEEK_SET) != 0)
            fail("seek to header failed");
        else
            writeHeader();
    }
    if (file_) {
        if (std::fflush(file_) != 0)
            fail("flush failed");
        // Durability before visibility: rename() must never publish a
        // file whose bytes the kernel has not accepted yet.
        if (ok_ && ::fsync(::fileno(file_)) != 0)
            fail("fsync failed");
        std::fclose(file_);
        file_ = nullptr;
    }
    if (ok_ && std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
        fail("rename '" + tmpPath_ + "' -> '" + path_ + "' failed");
    if (!ok_)
        std::remove(tmpPath_.c_str());
    return ok_;
}

} // namespace paralog::trace
