/**
 * @file
 * Tests for the `paralog-trace-v2` container: the LZ entropy stage, the
 * columnar ops-block codec, end-to-end record/replay equivalence with
 * v1 (bit-identical fingerprints, serial and concurrent), v1<->v2
 * migration round trips, and the corruption/truncation surface — every
 * structural boundary ±1, CRC-valid-but-garbage compressed payloads,
 * and seeded random flips over the CRC-protected payload bytes, all of
 * which must map to the reader's stable error taxonomy. The streaming
 * validator (paralogd's ingest path) is covered against v2 bytes too.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lz.hpp"
#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "trace/migrate.hpp"
#include "trace/stream_ingest.hpp"
#include "trace/trace_reader.hpp"
#include "trace/v2_block.hpp"

namespace paralog {
namespace {

using test::QuietTest;

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_v2_" + tag + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

RunSpec
makeSpec(WorkloadKind w, LifeguardKind lg, std::uint32_t cores,
         MemoryModel mm, std::uint64_t scale, const std::string &record,
         std::uint32_t format = 1, const std::string &replay = "")
{
    RunSpec spec;
    spec.workload = w;
    spec.lifeguard = lg;
    spec.mode = MonitorMode::kParallel;
    spec.cores = cores;
    spec.opt = test::makeOptions(scale);
    spec.opt.memoryModel = mm;
    spec.recordPath = record;
    spec.recordFormat = format;
    spec.replayPath = replay;
    return spec;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

// --------------------------------------------------------- LZ codec

TEST(LzCodec, RoundTripsAllShapes)
{
    std::vector<std::vector<std::uint8_t>> inputs;
    inputs.push_back({});                    // empty
    inputs.push_back({0x42});                // single byte
    inputs.push_back({1, 2, 3});             // below min match
    inputs.push_back(std::vector<std::uint8_t>(10000, 0xAA)); // one run
    // Repeating 7-byte pattern: self-overlapping matches.
    std::vector<std::uint8_t> pattern;
    for (int i = 0; i < 3000; ++i)
        pattern.push_back(static_cast<std::uint8_t>(i % 7));
    inputs.push_back(pattern);
    // Incompressible-ish: deterministic pseudo-random bytes.
    std::vector<std::uint8_t> noise;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        noise.push_back(static_cast<std::uint8_t>(x >> 56));
    }
    inputs.push_back(noise);
    // Structured: literals interleaved with repeats (the op-column
    // shape the coder exists for).
    std::vector<std::uint8_t> mixed;
    for (int i = 0; i < 500; ++i) {
        mixed.insert(mixed.end(), {0, 1, 1, 0, 2, 1});
        mixed.push_back(static_cast<std::uint8_t>(i));
    }
    inputs.push_back(mixed);

    for (const auto &in : inputs) {
        std::vector<std::uint8_t> enc, dec;
        lzCompress(in.data(), in.size(), enc);
        ASSERT_TRUE(
            lzDecompress(enc.data(), enc.size(), dec, in.size() + 1))
            << "input size " << in.size();
        EXPECT_EQ(dec, in) << "input size " << in.size();
    }
}

TEST(LzCodec, CompressesRepetitiveData)
{
    std::vector<std::uint8_t> in(64 * 1024, 0x5C);
    std::vector<std::uint8_t> enc;
    lzCompress(in.data(), in.size(), enc);
    EXPECT_LT(enc.size(), in.size() / 100)
        << "a constant run must collapse";
}

TEST(LzCodec, RejectsTruncationAndHostileLengths)
{
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 2000; ++i)
        in.push_back(static_cast<std::uint8_t>(i % 11));
    std::vector<std::uint8_t> enc, dec;
    lzCompress(in.data(), in.size(), enc);

    // Every proper prefix fails cleanly.
    for (std::size_t cut = 0; cut < enc.size(); cut += 7)
        EXPECT_FALSE(lzDecompress(enc.data(), cut, dec, in.size()))
            << "prefix of " << cut;

    // rawLen above the caller's ceiling is rejected before allocating.
    EXPECT_FALSE(
        lzDecompress(enc.data(), enc.size(), dec, in.size() - 1));

    // A flipped byte must never read or write out of bounds; outcomes
    // are either a clean failure or a differing (bounded) output.
    for (std::size_t i = 0; i < enc.size(); ++i) {
        std::vector<std::uint8_t> bad = enc;
        bad[i] ^= 0x80;
        if (lzDecompress(bad.data(), bad.size(), dec, in.size())) {
            EXPECT_LE(dec.size(), in.size());
        }
    }
}

// ----------------------------------------------------- v2 block codec

/** Collect every v1 ops-chunk payload of a real recording. */
std::vector<std::vector<std::uint8_t>>
recordedOpsPayloads(MemoryModel mm)
{
    TempTrace tmp(mm == MemoryModel::kSC ? "blk_sc" : "blk_tso");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, mm, 400, tmp.path());
    recordExperiment(spec);
    trace::TraceReader reader(tmp.path());
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        if (reader.chunkKind(i) != trace::kChunkOps)
            continue;
        EXPECT_TRUE(reader.chunkPayload(i, payload)) << reader.error();
        payloads.push_back(payload);
    }
    EXPECT_FALSE(payloads.empty());
    return payloads;
}

class V2Block : public QuietTest
{
};

TEST_F(V2Block, RoundTripsRealOpStreams)
{
    for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
        for (const auto &v1 : recordedOpsPayloads(mm)) {
            std::vector<std::uint8_t> v2, back;
            ASSERT_TRUE(
                trace::encodeOpsBlock(v1.data(), v1.size(), v2));
            ASSERT_TRUE(trace::decodeOpsBlock(v2.data(), v2.size(),
                                              back, v1.size()));
            EXPECT_EQ(back, v1);
        }
    }
}

TEST_F(V2Block, RejectsNonOpBytesAndCorruptBlocks)
{
    std::vector<std::uint8_t> junk = {0xFF, 0x01, 0x02}; // opcode 255
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(trace::encodeOpsBlock(junk.data(), junk.size(), out));
    EXPECT_TRUE(out.empty());

    std::vector<std::vector<std::uint8_t>> payloads =
        recordedOpsPayloads(MemoryModel::kSC);
    const std::vector<std::uint8_t> &v1 = payloads.front();
    std::vector<std::uint8_t> v2;
    ASSERT_TRUE(trace::encodeOpsBlock(v1.data(), v1.size(), v2));

    // Truncations at every offset fail cleanly.
    std::vector<std::uint8_t> dec;
    for (std::size_t cut = 0; cut < v2.size(); cut += 3)
        EXPECT_FALSE(
            trace::decodeOpsBlock(v2.data(), cut, dec, v1.size()))
            << "prefix of " << cut;

    // Undersized ceiling: the embedded v1Len must be rejected.
    EXPECT_FALSE(
        trace::decodeOpsBlock(v2.data(), v2.size(), dec, v1.size() - 1));

    // Any single-byte flip either fails, or still reconstructs v1
    // bytes of the recorded length (the CRC layer above catches the
    // rest; the decoder itself must just never misbehave).
    for (std::size_t i = 0; i < v2.size(); ++i) {
        std::vector<std::uint8_t> bad = v2;
        bad[i] ^= 0x10;
        if (trace::decodeOpsBlock(bad.data(), bad.size(), dec,
                                  v1.size())) {
            EXPECT_EQ(dec.size(), v1.size());
        }
    }
}

// --------------------------------------- v2 end-to-end record/replay

class TraceV2Format : public QuietTest
{
};

TEST_F(TraceV2Format, RecordsReadableV2AndShrinksTheFile)
{
    TempTrace v1("fmt_v1"), v2("fmt_v2");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 800, v1.path(), 1);
    RunResult live1 = recordExperiment(spec);
    spec.recordPath = v2.path();
    spec.recordFormat = 2;
    RunResult live2 = recordExperiment(spec);
    EXPECT_EQ(resultMismatch(ResultTier::kExact, live1, live2), "");

    trace::TraceReader r1(v1.path()), r2(v2.path());
    ASSERT_TRUE(r1.ok()) << r1.error();
    ASSERT_TRUE(r2.ok()) << r2.error();
    EXPECT_EQ(r1.formatVersion(), 1u);
    EXPECT_EQ(r2.formatVersion(), 2u);
    EXPECT_EQ(r1.configFingerprint(), r2.configFingerprint());
    EXPECT_EQ(r1.totalOps(), r2.totalOps());
    EXPECT_EQ(resultMismatch(ResultTier::kExact, r1.footer().result,
                             r2.footer().result),
              "");
    ASSERT_TRUE(r2.footer().hasViolationFingerprint);

    std::size_t s1 = slurp(v1.path()).size();
    std::size_t s2 = slurp(v2.path()).size();
    EXPECT_GE(s1, 2 * s2) << "v2 must compress the journal "
                          << "substantially (v1 " << s1 << " bytes, v2 "
                          << s2 << ")";
}

TEST_F(TraceV2Format, V2RecordingIsDeterministic)
{
    TempTrace a("det_a"), b("det_b");
    RunSpec spec = makeSpec(WorkloadKind::kFmm, LifeguardKind::kMemCheck,
                            2, MemoryModel::kSC, 300, a.path(), 2);
    recordExperiment(spec);
    spec.recordPath = b.path();
    recordExperiment(spec);
    EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

struct V2Cell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
};

class V2ReplayBitIdentical : public test::QuietTestWithParam<V2Cell>
{
};

TEST_P(V2ReplayBitIdentical, V2ReplayMatchesV1ReplayAndLive)
{
    const V2Cell &cell = GetParam();
    TempTrace v1("rep_v1"), v2("rep_v2");
    RunSpec spec = makeSpec(WorkloadKind::kLu, cell.lifeguard, 2,
                            cell.memoryModel, 400, v1.path(), 1);
    RunResult live = recordExperiment(spec);
    spec.recordPath = v2.path();
    spec.recordFormat = 2;
    recordExperiment(spec);

    // Serial replay of both containers: the footer self-check panics
    // on any divergence, and the assembled results must match the live
    // run and each other bit-identically.
    RunSpec rep1 = makeSpec(WorkloadKind::kLu, cell.lifeguard, 2,
                            cell.memoryModel, 400, "", 1, v1.path());
    RunSpec rep2 = rep1;
    rep2.replayPath = v2.path();
    RunResult from1 = replayExperiment(rep1);
    RunResult from2 = replayExperiment(rep2);
    EXPECT_EQ(resultMismatch(ResultTier::kExact, from1, live), "");
    EXPECT_EQ(resultMismatch(ResultTier::kExact, from2, from1), "");

    // Concurrent replay (lg-threads=4) keeps the results tier.
    rep2.opt.lgThreads = 4;
    RunResult conc = replayExperiment(rep2);
    EXPECT_EQ(resultMismatch(ResultTier::kResults, conc, live), "");
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModels, V2ReplayBitIdentical,
    ::testing::Values(
        V2Cell{LifeguardKind::kAddrCheck, MemoryModel::kSC},
        V2Cell{LifeguardKind::kTaintCheck, MemoryModel::kTSO},
        V2Cell{LifeguardKind::kMemCheck, MemoryModel::kSC},
        V2Cell{LifeguardKind::kLockSet, MemoryModel::kTSO}),
    [](const ::testing::TestParamInfo<V2Cell> &info) {
        return std::string(toString(info.param.lifeguard)) + "_" +
               toString(info.param.memoryModel);
    });

TEST_F(TraceV2Format, MmapAndHeapReadsAgree)
{
    TempTrace tmp("mmap");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                            2, MemoryModel::kSC, 400, tmp.path(), 2);
    recordExperiment(spec);

    trace::TraceReader::Options mm, heap;
    heap.preferMmap = false;
    trace::TraceReader a(tmp.path(), mm), b(tmp.path(), heap);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_TRUE(a.mapped());
    EXPECT_FALSE(b.mapped());

    trace::TraceOp opa, opb;
    for (ThreadId t = 0; t < a.config().appThreads; ++t) {
        auto sa = a.opStream(t), sb = b.opStream(t);
        while (true) {
            bool na = sa.next(opa), nb = sb.next(opb);
            ASSERT_EQ(na, nb);
            if (!na)
                break;
            EXPECT_EQ(opa.op, opb.op);
            EXPECT_EQ(opa.gseq, opb.gseq);
            EXPECT_EQ(opa.cycle, opb.cycle);
        }
    }
    EXPECT_TRUE(a.ok()) << a.error();
    EXPECT_TRUE(b.ok()) << b.error();
}

// ------------------------------------------------------- migration

class TraceMigrate : public QuietTest
{
};

TEST_F(TraceMigrate, V1ToV2ToV1IsByteIdentical)
{
    TempTrace orig("mig_orig"), v2("mig_v2"), back("mig_back");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kTSO, 400, orig.path(), 1);
    recordExperiment(spec);

    trace::MigrateResult up =
        trace::migrateTrace(orig.path(), v2.path(), 2);
    ASSERT_TRUE(up.ok) << up.error;
    EXPECT_EQ(up.srcFormat, 1u);
    EXPECT_EQ(up.dstFormat, 2u);
    EXPECT_GT(up.chunks, 0u);
    EXPECT_LT(up.dstBytes, up.srcBytes);

    trace::MigrateResult down =
        trace::migrateTrace(v2.path(), back.path(), 1);
    ASSERT_TRUE(down.ok) << down.error;
    EXPECT_EQ(slurp(back.path()), slurp(orig.path()))
        << "v1 -> v2 -> v1 must reproduce the original file";
}

TEST_F(TraceMigrate, MigratedTraceReplaysBitIdentically)
{
    TempTrace orig("mig_rep"), v2("mig_rep_v2");
    RunSpec spec = makeSpec(WorkloadKind::kOcean,
                            LifeguardKind::kMemCheck, 2, MemoryModel::kSC,
                            400, orig.path(), 1);
    RunResult live = recordExperiment(spec);
    ASSERT_TRUE(trace::migrateTrace(orig.path(), v2.path(), 2).ok);

    RunSpec rep = makeSpec(WorkloadKind::kOcean, LifeguardKind::kMemCheck,
                           2, MemoryModel::kSC, 400, "", 1, v2.path());
    RunResult replayed = replayExperiment(rep);
    EXPECT_EQ(resultMismatch(ResultTier::kExact, replayed, live), "");

    rep.opt.lgThreads = 4;
    RunResult conc = replayExperiment(rep);
    EXPECT_EQ(resultMismatch(ResultTier::kResults, conc, live), "");
}

TEST_F(TraceMigrate, RejectsBadInputs)
{
    TempTrace out("mig_bad_out");
    trace::MigrateResult res =
        trace::migrateTrace("/nonexistent/trace", out.path(), 2);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());

    TempTrace src("mig_bad_src");
    spit(src.path(), std::vector<std::uint8_t>(200, 0x00));
    res = trace::migrateTrace(src.path(), out.path(), 2);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("magic"), std::string::npos) << res.error;

    TempTrace good("mig_bad_fmt");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                            1, MemoryModel::kSC, 300, good.path(), 1);
    recordExperiment(spec);
    res = trace::migrateTrace(good.path(), out.path(), 3);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("format"), std::string::npos) << res.error;
}

// ------------------------------------------- corruption / truncation

/** One recorded v2 file + its bytes, shared across corruption tests. */
class V2Corruption : public QuietTest
{
  protected:
    void
    SetUp() override
    {
        tmp_ = std::make_unique<TempTrace>("corrupt");
        RunSpec spec =
            makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck, 2,
                     MemoryModel::kSC, 400, tmp_->path(), 2);
        recordExperiment(spec);
        good_ = slurp(tmp_->path());
        ASSERT_GT(good_.size(), trace::kHeaderBytes + 16u);
    }

    /** Walk the chunk framing; returns chunk (header offset, payload
     *  bytes) pairs. */
    std::vector<std::pair<std::size_t, std::uint32_t>>
    chunkFrames() const
    {
        std::vector<std::pair<std::size_t, std::uint32_t>> frames;
        std::size_t off = trace::kHeaderBytes;
        while (off + 16 <= good_.size()) {
            std::uint32_t payload = trace::get32le(good_.data() + off + 8);
            frames.emplace_back(off, payload);
            off += 16 + payload;
        }
        EXPECT_EQ(off, good_.size()) << "chunk walk out of sync";
        return frames;
    }

    /** Reader outcome on @p bytes: open failure, or failure while
     *  draining every op and latency stream (the lazy CRCs only fire
     *  when a chunk is actually consumed). Returns the final error
     *  text ("" if everything was accepted). */
    std::string
    consumeAll(const std::vector<std::uint8_t> &bytes)
    {
        spit(tmp_->path(), bytes);
        trace::TraceReader reader(tmp_->path());
        if (!reader.ok())
            return reader.error();
        trace::TraceOp op;
        Cycle latency;
        for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
            auto stream = reader.opStream(t);
            while (stream.next(op)) {
            }
            if (!reader.ok())
                return reader.error();
            auto lat = reader.latencyStream(t);
            while (lat.next(latency)) {
            }
            if (!reader.ok())
                return reader.error();
        }
        return "";
    }

    std::unique_ptr<TempTrace> tmp_;
    std::vector<std::uint8_t> good_;
};

TEST_F(V2Corruption, TruncationAtEveryStructuralBoundary)
{
    std::vector<std::size_t> cuts{0, trace::kHeaderBytes / 2,
                                  trace::kHeaderBytes - 1,
                                  trace::kHeaderBytes};
    for (const auto &[off, payload] : chunkFrames()) {
        cuts.push_back(off);
        cuts.push_back(off + 1);
        cuts.push_back(off + 8);
        cuts.push_back(off + 15);
        cuts.push_back(off + 16);
        if (payload > 1) {
            cuts.push_back(off + 16 + 1);
            cuts.push_back(off + 16 + payload / 2);
            cuts.push_back(off + 16 + payload - 1);
        }
    }
    cuts.push_back(good_.size() - 1);

    for (std::size_t cut : cuts) {
        if (cut >= good_.size())
            continue;
        std::vector<std::uint8_t> bad = good_;
        bad.resize(cut);
        spit(tmp_->path(), bad);
        trace::TraceReader reader(tmp_->path());
        EXPECT_FALSE(reader.ok())
            << "cut at byte " << cut << " of " << good_.size();
        EXPECT_NE(reader.error().find("paralog-trace"),
                  std::string::npos)
            << "error must name the format: " << reader.error();
    }
}

TEST_F(V2Corruption, PayloadFlipsAreCaughtByTheCrc)
{
    // Flip the first byte, a middle byte and the last byte of every
    // data payload: open() succeeds (CRCs are lazy), consuming fails.
    for (const auto &[off, payload] : chunkFrames()) {
        std::uint32_t kind = trace::get32le(good_.data() + off);
        if (kind == trace::kChunkFooter)
            continue; // the footer is validated eagerly at open
        for (std::size_t at :
             {std::size_t(0), std::size_t(payload / 2),
              std::size_t(payload - 1)}) {
            std::vector<std::uint8_t> bad = good_;
            bad[off + 16 + at] ^= 0x20;
            std::string err = consumeAll(bad);
            ASSERT_FALSE(err.empty())
                << "flip in chunk at " << off << " offset " << at
                << " went unnoticed";
            EXPECT_NE(err.find("CRC mismatch"), std::string::npos)
                << err;
        }
    }
}

TEST_F(V2Corruption, FooterFlipFailsAtOpen)
{
    auto frames = chunkFrames();
    const auto &[off, payload] = frames.back();
    ASSERT_EQ(trace::get32le(good_.data() + off), trace::kChunkFooter);
    std::vector<std::uint8_t> bad = good_;
    bad[off + 16 + payload / 2] ^= 0x01;
    spit(tmp_->path(), bad);
    EXPECT_FALSE(trace::TraceReader(tmp_->path()).ok());
}

TEST_F(V2Corruption, CrcValidGarbageFailsTheBlockDecoder)
{
    // Corrupt a v2 ops payload *and* fix up the chunk CRC: the CRC
    // layer passes, so the failure must come from the block decoder's
    // own structural checks — with its taxonomy message.
    auto frames = chunkFrames();
    std::size_t target = frames.size();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (trace::get32le(good_.data() + frames[i].first) ==
            trace::kChunkOps) {
            target = i;
            break;
        }
    }
    ASSERT_LT(target, frames.size());
    const auto &[off, payload] = frames[target];

    for (std::size_t at = 0; at < payload;
         at += 1 + payload / 37) { // ~37 positions across the payload
        std::vector<std::uint8_t> bad = good_;
        bad[off + 16 + at] ^= 0x44;
        std::uint32_t crc =
            trace::crc32(bad.data() + off + 16, payload);
        trace::put32le(bad.data() + off + 12, crc);
        std::string err = consumeAll(bad);
        if (err.empty())
            continue; // flip produced another valid block: fine
        EXPECT_TRUE(err.find("does not decode") != std::string::npos ||
                    err.find("malformed op stream") != std::string::npos)
            << "unexpected failure taxonomy: " << err;
    }
}

TEST_F(V2Corruption, SeededRandomPayloadFlipsNeverPassSilently)
{
    // 200 seeded random single-byte flips restricted to CRC-protected
    // payload bytes: every one must surface as a reader failure (open
    // or consume), never as a silently different decode.
    std::vector<std::pair<std::size_t, std::uint32_t>> frames =
        chunkFrames();
    std::vector<std::size_t> payload_bytes;
    for (const auto &[off, payload] : frames)
        for (std::size_t i = 0; i < payload; ++i)
            payload_bytes.push_back(off + 16 + i);
    ASSERT_FALSE(payload_bytes.empty());

    std::uint64_t rng = 0xC0FFEE123456789ULL; // fixed seed: reproducible
    for (int trial = 0; trial < 200; ++trial) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t pos = payload_bytes[(rng >> 17) % payload_bytes.size()];
        std::uint8_t bit = static_cast<std::uint8_t>(1u << ((rng >> 9) % 8));
        std::vector<std::uint8_t> bad = good_;
        bad[pos] ^= bit;
        EXPECT_FALSE(consumeAll(bad).empty())
            << "flip of bit 0x" << std::hex << int(bit) << " at byte "
            << std::dec << pos << " (trial " << trial
            << ") went unnoticed";
    }
}

// ----------------------------------------- streaming ingest (paralogd)

class V2StreamIngest : public QuietTest
{
  protected:
    std::vector<std::uint8_t>
    makeV2Bytes()
    {
        TempTrace tmp("ingest");
        RunSpec spec =
            makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck, 2,
                     MemoryModel::kSC, 300, tmp.path(), 2);
        recordExperiment(spec);
        return slurp(tmp.path());
    }
};

TEST_F(V2StreamIngest, AcceptsV2Streams)
{
    std::vector<std::uint8_t> bytes = makeV2Bytes();
    trace::StreamIngest in;
    EXPECT_TRUE(in.feed(bytes.data(), bytes.size())) << in.error();
    EXPECT_TRUE(in.finish());
    EXPECT_TRUE(in.complete());
    EXPECT_EQ(in.header().formatVersion, 2u);
    EXPECT_EQ(in.bytesConsumed(), bytes.size());
}

TEST_F(V2StreamIngest, RefusesGarbageAtTheFirstBadChunk)
{
    std::vector<std::uint8_t> bytes = makeV2Bytes();

    // Payload flip: rejected the moment that chunk's CRC completes —
    // later bytes are never accepted.
    std::vector<std::uint8_t> bad = bytes;
    bad[trace::kHeaderBytes + 16 + 5] ^= 0x08;
    trace::StreamIngest in;
    EXPECT_FALSE(in.feed(bad.data(), bad.size()));
    EXPECT_EQ(in.errorCode(), trace::IngestError::kCrcMismatch);
    std::uint32_t first_payload =
        trace::get32le(bytes.data() + trace::kHeaderBytes + 8);
    EXPECT_LE(in.bytesConsumed(),
              trace::kHeaderBytes + 16u + first_payload)
        << "must stop at the first bad chunk, not keep consuming";

    // Version word vs magic mismatch.
    bad = bytes;
    trace::put32le(bad.data() + 8, 1); // v2 magic claiming version 1
    trace::StreamIngest in2;
    EXPECT_FALSE(in2.feed(bad.data(), bad.size()));
    EXPECT_EQ(in2.errorCode(), trace::IngestError::kBadVersion);

    // Truncation at any point in the tail.
    trace::StreamIngest in3;
    in3.feed(bytes.data(), bytes.size() - 9);
    EXPECT_FALSE(in3.finish());
    EXPECT_EQ(in3.errorCode(), trace::IngestError::kTruncated);
}

} // namespace
} // namespace paralog
