#include "trace/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "trace/v2_block.hpp"

namespace paralog::trace {

namespace {

/** Structural ceiling on one decoded v2 ops chunk: the writer flushes
 *  at ~56 KB of v1 bytes, so anything near this limit is hostile. */
inline constexpr std::size_t kMaxDecodedChunkBytes = 16u << 20;

inline constexpr const char *kUndecodableChunk =
    "v2 ops chunk does not decode (corrupt trace)";

} // namespace

TraceReader::TraceReader(const std::string &path, const Options &opts)
{
    openSpan(path, opts);
    if (ok_)
        parseHeader();
    if (ok_)
        indexChunks();
}

TraceReader::~TraceReader()
{
    if (map_)
        ::munmap(map_, mapLen_);
}

void
TraceReader::fail(const std::string &why)
{
    if (ok_)
        error_ = (formatVersion_ == kFormatVersionV2
                      ? "paralog-trace-v2: "
                      : "paralog-trace-v1: ") +
                 why;
    ok_ = false;
}

void
TraceReader::openSpan(const std::string &path, const Options &opts)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        fail("cannot open '" + path + "'");
        return;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fail("cannot stat '" + path + "'");
        return;
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0 && opts.preferMmap) {
        void *m = ::mmap(nullptr, static_cast<std::size_t>(size_),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        if (m != MAP_FAILED) {
            map_ = m;
            mapLen_ = static_cast<std::size_t>(size_);
            data_ = static_cast<const std::uint8_t *>(m);
        }
    }
    if (!map_ && size_ > 0) {
        // Heap fallback: read the whole file once. Same span interface,
        // no lifetime differences for anything above this function.
        fileBuf_.resize(static_cast<std::size_t>(size_));
        std::uint64_t off = 0;
        while (off < size_) {
            ssize_t got = ::read(fd, fileBuf_.data() + off,
                                 static_cast<std::size_t>(size_ - off));
            if (got <= 0) {
                ::close(fd);
                fail("I/O error reading '" + path + "'");
                return;
            }
            off += static_cast<std::uint64_t>(got);
        }
        data_ = fileBuf_.data();
    }
    ::close(fd);
}

void
TraceReader::parseHeader()
{
    if (size_ < kHeaderBytes) {
        fail("file shorter than the header");
        return;
    }
    ParsedHeader parsed;
    std::string why = parseTraceHeader(data_, parsed);
    // Report under the right banner even when the header itself is the
    // problem — the magic decides which format we were reading.
    formatVersion_ = parsed.formatVersion;
    if (!why.empty()) {
        fail(why);
        return;
    }
    cfg_ = parsed.cfg;
    configFingerprint_ = parsed.configFingerprint;
    totalOps_ = parsed.totalOps;
    totalRecords_ = parsed.totalRecords;
    footerOffset_ = parsed.footerOffset;
    if (footerOffset_ == 0) {
        fail("recording was never finalized (no footer)");
        return;
    }
    opChunks_.resize(cfg_.appThreads);
    latChunks_.resize(cfg_.appThreads);
}

void
TraceReader::indexChunks()
{
    std::uint64_t pos = kHeaderBytes;
    bool footer_seen = false;
    while (pos < size_) {
        if (size_ - pos < 16) {
            fail("EOF in the middle of a chunk header (truncated "
                 "recording)");
            return;
        }
        const std::uint8_t *h = data_ + pos;
        ChunkRef ref;
        ref.kind = get32le(h);
        ref.tid = get32le(h + 4);
        ref.bytes = get32le(h + 8);
        ref.crc = get32le(h + 12);
        ref.offset = pos + 16;
        if (ref.bytes > size_ - ref.offset) {
            fail("chunk payload of " + std::to_string(ref.bytes) +
                 " bytes at offset " + std::to_string(ref.offset) +
                 " extends past end of file (truncated recording)");
            return;
        }
        pos = ref.offset + ref.bytes;

        std::size_t idx = chunks_.size();
        if (ref.kind == kChunkOps || ref.kind == kChunkMetaLatency) {
            if (ref.tid >= cfg_.appThreads) {
                fail("chunk for out-of-range thread");
                return;
            }
            (ref.kind == kChunkOps ? opChunks_ : latChunks_)[ref.tid]
                .push_back(idx);
        }
        chunks_.push_back(ref);
        if (ref.kind == kChunkFooter) {
            // The footer is validated eagerly (CRC included): replay
            // needs it before any stream is consumed, and a recording
            // whose results are unreadable is useless anyway.
            chunkChecked_.resize(chunks_.size(), 0);
            std::vector<std::uint8_t> payload;
            if (!chunkPayload(idx, payload))
                return;
            parseFooter(payload);
            if (!ok_)
                return;
            footer_seen = true;
        }
        // Unknown kinds are indexed but never consumed (forward
        // compatibility).
    }
    chunkChecked_.resize(chunks_.size(), 0);
    if (!footer_seen)
        fail("footer chunk missing");
}

bool
TraceReader::checkChunk(std::size_t i)
{
    if (!ok_)
        return false;
    if (i < chunkChecked_.size() && chunkChecked_[i])
        return true;
    const ChunkRef &ref = chunks_[i];
    if (crc32(data_ + ref.offset, ref.bytes) != ref.crc) {
        fail("chunk CRC mismatch (corrupt trace)");
        return false;
    }
    if (i < chunkChecked_.size())
        chunkChecked_[i] = 1;
    return true;
}

bool
TraceReader::chunkPayload(std::size_t i, std::vector<std::uint8_t> &out)
{
    out.clear();
    if (chunkChecked_.size() < chunks_.size())
        chunkChecked_.resize(chunks_.size(), 0);
    if (!checkChunk(i))
        return false;
    const ChunkRef &ref = chunks_[i];
    if (ref.kind == kChunkOps && formatVersion_ == kFormatVersionV2) {
        if (!decodeOpsBlock(data_ + ref.offset, ref.bytes, out,
                            kMaxDecodedChunkBytes)) {
            out.clear();
            fail(kUndecodableChunk);
            return false;
        }
        return true;
    }
    out.assign(data_ + ref.offset, data_ + ref.offset + ref.bytes);
    return true;
}

void
TraceReader::parseFooter(const std::vector<std::uint8_t> &payload)
{
    ByteCursor c(payload.data(), payload.size());
    RunResult &r = footer_.result;
    std::uint64_t n = 0;
    bool good = c.getVarint(n) && n == cfg_.appThreads;
    r.app.resize(good ? n : 0);
    for (AppThreadStats &a : r.app) {
        good = good && c.getVarint(a.execCycles) &&
               c.getVarint(a.logFullStall) && c.getVarint(a.lockStall) &&
               c.getVarint(a.barrierStall) && c.getVarint(a.drainStall) &&
               c.getVarint(a.caAckCycles) && c.getVarint(a.storeBufStall) &&
               c.getVarint(a.retired) && c.getVarint(a.programInsts) &&
               c.getVarint(a.doneAt);
    }
    footer_.opCount.resize(cfg_.appThreads);
    footer_.recordCount.resize(cfg_.appThreads);
    for (ThreadId t = 0; good && t < cfg_.appThreads; ++t) {
        good = c.getVarint(footer_.opCount[t]) &&
               c.getVarint(footer_.recordCount[t]);
    }
    std::uint64_t nlg = 0;
    good = good && c.getVarint(nlg) && nlg <= 1024;
    r.lifeguard.resize(good ? nlg : 0);
    for (LifeguardThreadStats &l : r.lifeguard) {
        good = good && c.getVarint(l.usefulCycles) &&
               c.getVarint(l.depStall) && c.getVarint(l.caStall) &&
               c.getVarint(l.versionStall) && c.getVarint(l.appStall) &&
               c.getVarint(l.recordsProcessed) &&
               c.getVarint(l.eventsHandled) && c.getVarint(l.doneAt);
    }
    good = good && c.getVarint(r.totalCycles) &&
           c.getVarint(r.violationCount) &&
           c.getVarint(r.versionsProduced) &&
           c.getVarint(r.versionsConsumed) &&
           c.getVarint(r.versionStallRetries) &&
           c.getVarint(r.shadowFingerprint);
    if (!good) {
        fail("malformed footer");
        return;
    }
    // Appended-field region: absent in older recordings, ignored
    // beyond what this reader knows (additive evolution).
    if (!c.atEnd()) {
        if (!c.getVarint(r.violationFingerprint)) {
            fail("malformed footer");
            return;
        }
        footer_.hasViolationFingerprint = true;
    }
    // A parallel recording runs one lifeguard core per app core; a
    // footer disagreeing with the header's thread count (e.g. an empty
    // lifeguard list behind an intact config fingerprint — the header
    // checksum does not cover the footer) would otherwise surface
    // only after a whole replay, as a footer self-check mismatch.
    if (cfg_.mode == MonitorMode::kParallel &&
        r.lifeguard.size() != cfg_.appThreads)
        fail("footer has lifeguard stats for " +
             std::to_string(r.lifeguard.size()) +
             " cores in a " + std::to_string(cfg_.appThreads) +
             "-core parallel recording (corrupt or tampered footer)");
}

bool
TraceReader::cursorForChunk(std::size_t i, ByteCursor &cur)
{
    if (!checkChunk(i)) {
        cur = ByteCursor{};
        return false;
    }
    cur = ByteCursor(data_ + chunks_[i].offset, chunks_[i].bytes);
    return true;
}

TraceReader::OpStream
TraceReader::opStream(ThreadId tid)
{
    OpStream s;
    s.reader_ = this;
    s.tid_ = tid;
    s.columnar_ = formatVersion_ == kFormatVersionV2;
    return s;
}

TraceReader::LatencyStream
TraceReader::latencyStream(ThreadId tid)
{
    LatencyStream s;
    s.reader_ = this;
    s.tid_ = tid;
    return s;
}

bool
TraceReader::OpStream::loadChunk()
{
    const auto &order = reader_->opChunks_[tid_];
    if (!reader_->ok_ || chunkIdx_ >= order.size())
        return false;
    const std::size_t i = order[chunkIdx_++];
    if (!columnar_)
        return reader_->cursorForChunk(i, cur_);
    if (!reader_->checkChunk(i))
        return false;
    const ChunkRef &ref = reader_->chunks_[i];
    if (!parseOpsBlock(reader_->data_ + ref.offset, ref.bytes, section_,
                       kMaxDecodedChunkBytes, block_)) {
        block_ = OpsBlock{};
        reader_->fail(kUndecodableChunk);
        return false;
    }
    return true;
}

bool
TraceReader::OpStream::next(TraceOp &out)
{
    auto bad = [this](const char *why) {
        reader_->fail(std::string("malformed op stream: ") + why);
        return false;
    };

    std::uint8_t opcode = 0;
    std::uint64_t d_gseq = 0, d_cycle = 0, d_lg = 0;
    ByteCursor body; // v2: this op's body, bounded to its length
    if (columnar_) {
        auto &col = block_.col;
        while (col[kColOpcode].atEnd()) {
            // The chunk's last op is read; so must its columns be.
            for (const ByteCursor &c : col)
                if (!c.atEnd()) {
                    reader_->fail(kUndecodableChunk);
                    return false;
                }
            if (!loadChunk())
                return false;
        }
        std::uint64_t body_len = 0;
        opcode = *col[kColOpcode].pos++;
        if (opcode > kMaxOpCode || !col[kColGseq].getVarint(d_gseq) ||
            !col[kColCycle].getVarint(d_cycle) ||
            !col[kColLgStep].getVarint(d_lg) ||
            !col[kColBodyLen].getVarint(body_len) ||
            body_len > col[kColBody].remaining()) {
            reader_->fail(kUndecodableChunk);
            return false;
        }
        body = ByteCursor(col[kColBody].pos,
                          static_cast<std::size_t>(body_len));
        col[kColBody].pos += body_len;
    } else {
        while (cur_.atEnd())
            if (!loadChunk())
                return false;
        if (!cur_.getByte(opcode) || opcode > kMaxOpCode)
            return bad("bad opcode");
        if (!cur_.getVarint(d_gseq) || !cur_.getVarint(d_cycle) ||
            !cur_.getVarint(d_lg))
            return bad("truncated op prelude");
    }
    // Replay holds an op until its cycle comes round, so an op stamped
    // past the recorded run would idle the scheduler up to maxCycles.
    if (d_cycle > reader_->footer_.result.totalCycles - cycle_)
        return bad("op cycle beyond the recorded run");
    gseq_ += d_gseq;
    cycle_ += d_cycle;
    lgStep_ += d_lg;

    // Each op kind writes only its own fields (see TraceOp); an
    // append's record is reset by the record decoder.
    out.op = static_cast<OpCode>(opcode);
    out.gseq = gseq_;
    out.cycle = cycle_;
    out.lgStep = lgStep_;

    ByteCursor &in = columnar_ ? body : cur_;
    std::uint64_t v = 0;
    switch (out.op) {
      case OpCode::kRetire:
        if (!in.getVarint(v))
            return bad("truncated retire");
        retired_ += v;
        out.retired = retired_;
        break;

      case OpCode::kAppend:
      case OpCode::kAppendCa:
        if (!in.getVarint(v))
            return bad("truncated append");
        out.chargedBytes = static_cast<std::uint32_t>(v);
        if (!decoder_.decode(in, out.chargedBytes, out.rec))
            return bad("record decode failed");
        out.rec.tid = tid_;
        break;

      case OpCode::kAttachArcs: {
        std::uint64_t n = 0;
        if (!in.getVarint(out.rid) || !in.getVarint(n) || n > 4096)
            return bad("truncated arcs");
        out.arcs.resize(n);
        for (DepArc &a : out.arcs) {
            std::uint8_t tid = 0;
            if (!in.getByte(tid) || !in.getVarint(a.rid))
                return bad("truncated arc");
            a.tid = tid;
        }
        break;
      }

      case OpCode::kAnnotateConsume: {
        std::uint64_t vtid = 0;
        if (!in.getVarint(out.rid) || !in.getVarint(vtid) ||
            !in.getVarint(out.version.rid))
            return bad("truncated consume annotation");
        out.version.tid = static_cast<ThreadId>(vtid);
        break;
      }

      case OpCode::kInsertProduce: {
        std::uint64_t vtid = 0;
        std::uint8_t size = 0;
        if (!in.getVarint(out.rid) || !in.getVarint(vtid) ||
            !in.getVarint(out.version.rid) ||
            !in.getVarint(out.addr) || !in.getByte(size))
            return bad("truncated produce insertion");
        out.version.tid = static_cast<ThreadId>(vtid);
        out.size = size;
        break;
      }

      case OpCode::kVisLimit:
        if (!in.getVarint(v))
            return bad("truncated visibility limit");
        out.visLimit = (v == 0) ? kInvalidRecord : v - 1;
        break;

      case OpCode::kCaBroadcast: {
        std::uint8_t kind = 0;
        std::uint64_t n = 0, begin = 0, len = 0;
        if (!in.getVarint(out.ca.seq) ||
            !in.getVarint(out.ca.issuerEventRid) ||
            !in.getByte(kind) || !in.getVarint(begin) ||
            !in.getVarint(len) || !in.getVarint(n) || n > 1024)
            return bad("truncated CA broadcast");
        out.ca.kind = static_cast<HighLevelKind>(kind);
        out.ca.range = AddrRange{begin, begin + len};
        out.ca.issuer = tid_;
        out.ca.arrivalRid.resize(n);
        out.ca.waitersRemaining = 0;
        for (RecordId &r : out.ca.arrivalRid) {
            if (!in.getVarint(v))
                return bad("truncated CA arrival");
            r = (v == 0) ? kInvalidRecord : v - 1;
            if (r != kInvalidRecord)
                ++out.ca.waitersRemaining;
        }
        break;
      }
    }
    // v1 ops have no length: the next op starts where this one's parse
    // ends. A v2 body must be exactly the length its column records.
    if (columnar_ && !in.atEnd())
        return bad("op body longer than its fields");
    return true;
}

bool
TraceReader::LatencyStream::next(Cycle &latency)
{
    while (runLeft_ == 0) {
        while (cur_.atEnd()) {
            const auto &order = reader_->latChunks_[tid_];
            if (!reader_->ok_ || chunkIdx_ >= order.size())
                return false;
            std::size_t i = order[chunkIdx_++];
            if (!reader_->cursorForChunk(i, cur_))
                return false;
        }
        if (!cur_.getVarint(runLatency_) || !cur_.getVarint(runLeft_)) {
            reader_->fail("malformed latency stream");
            return false;
        }
    }
    --runLeft_;
    latency = runLatency_;
    return true;
}

bool
TraceReader::LatencyStream::exhausted() const
{
    return runLeft_ == 0 && cur_.atEnd() &&
           chunkIdx_ >= reader_->latChunks_[tid_].size();
}

} // namespace paralog::trace
