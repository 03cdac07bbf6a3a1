/**
 * @file
 * Tests for the streaming `paralog-trace-v1` validator
 * (trace/stream_ingest.hpp): a complete stream is accepted no matter
 * how it is split across feed() calls — including a split at every
 * structural boundary — and every way a stream can be wrong (bad
 * magic/version/header, corrupt chunk CRC, truncation at any depth,
 * trailing bytes, size budgets) maps to the right IngestError, sticks,
 * and never affects anything but that validator instance.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/paralog_test.hpp"
#include "harness/tampered_journals.hpp"
#include "trace/format.hpp"
#include "trace/stream_ingest.hpp"
#include "trace/trace_writer.hpp"

namespace paralog::trace {
namespace {

/** The bytes of the file at @p path. */
std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

/**
 * Build a small, fully valid trace in memory via the real writer: a
 * few op chunks on two threads, a latency chunk, and a footer. The
 * ingest layer never decodes payloads, so arbitrary op bytes do.
 */
std::vector<std::uint8_t>
makeTraceBytes(std::size_t ops_per_thread = 600)
{
    std::string path = ::testing::TempDir() + "paralog_ingest_" +
                       std::to_string(::getpid()) + ".trace";
    TraceConfig cfg;
    cfg.appThreads = 2;
    {
        TraceWriter w(path, cfg);
        EXPECT_TRUE(w.ok()) << w.error();
        for (std::size_t i = 0; i < ops_per_thread; ++i) {
            for (ThreadId t = 0; t < cfg.appThreads; ++t) {
                // The v1 op bytes {1, 2, 3, 4, 5, 6, 7}.
                auto &body = w.ops(t).beginOp(1, 2, 3, 4);
                body.insert(body.end(), {5, 6, 7});
                w.endOp(t, i % 3 == 0);
            }
            w.appendMetaLatency(0, 4 + (i % 5));
        }
        TraceFooter footer;
        footer.result.app.resize(cfg.appThreads);
        footer.result.lifeguard.resize(cfg.appThreads);
        footer.result.totalCycles = 1234;
        EXPECT_TRUE(w.finalize(footer)) << w.error();
    }
    std::vector<std::uint8_t> bytes = readFile(path);
    std::remove(path.c_str());
    EXPECT_GT(bytes.size(), kHeaderBytes + 16u);
    return bytes;
}

/** Every structural boundary in @p bytes: header end, each chunk
 *  header end, each payload end — the offsets where the validator
 *  changes state. */
std::vector<std::size_t>
structuralBoundaries(const std::vector<std::uint8_t> &bytes)
{
    std::vector<std::size_t> at;
    std::size_t off = kHeaderBytes;
    at.push_back(off);
    while (off + 16 <= bytes.size()) {
        std::uint32_t payload = get32le(bytes.data() + off + 8);
        at.push_back(off + 16);           // after the chunk header
        off += 16 + payload;
        at.push_back(std::min(off, bytes.size())); // after the payload
        if (off >= bytes.size())
            break;
    }
    return at;
}

void
feedSplit(StreamIngest &in, const std::vector<std::uint8_t> &bytes,
          std::size_t split)
{
    ASSERT_LE(split, bytes.size());
    in.feed(bytes.data(), split);
    in.feed(bytes.data() + split, bytes.size() - split);
}

TEST(StreamIngest, AcceptsWholeStream)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes();
    StreamIngest in;
    EXPECT_TRUE(in.feed(bytes.data(), bytes.size()));
    EXPECT_TRUE(in.complete());
    EXPECT_TRUE(in.finish());
    EXPECT_FALSE(in.failed());
    EXPECT_EQ(in.errorCode(), IngestError::kNone);
    EXPECT_EQ(in.bytesConsumed(), bytes.size());
    EXPECT_GE(in.chunksValidated(), 3u); // ops x2 threads + footer
    EXPECT_TRUE(in.headerDone());
    EXPECT_EQ(in.header().cfg.appThreads, 2u);
}

TEST(StreamIngest, AcceptsByteAtATime)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(60);
    StreamIngest in;
    for (std::uint8_t b : bytes)
        ASSERT_TRUE(in.feed(&b, 1));
    EXPECT_TRUE(in.finish());
    EXPECT_TRUE(in.complete());
}

TEST(StreamIngest, AcceptsSplitAtEveryStructuralBoundary)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes();
    // Split exactly at, one before and one after every state change —
    // the off-by-one surface of the incremental parser.
    std::vector<std::size_t> splits = {0, 1, kHeaderBytes - 1};
    for (std::size_t b : structuralBoundaries(bytes)) {
        if (b > 0)
            splits.push_back(b - 1);
        splits.push_back(b);
        if (b < bytes.size())
            splits.push_back(b + 1);
    }
    for (std::size_t split : splits) {
        StreamIngest in;
        feedSplit(in, bytes, split);
        EXPECT_TRUE(in.finish()) << "split at " << split << ": "
                                 << in.error();
        EXPECT_TRUE(in.complete()) << "split at " << split;
    }
}

TEST(StreamIngest, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    bytes[0] ^= 0xFF;
    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kBadMagic);
    EXPECT_FALSE(in.complete());
}

TEST(StreamIngest, RejectsBadVersion)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    put32le(bytes.data() + 8, 99);
    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kBadVersion);
}

TEST(StreamIngest, RejectsCorruptHeader)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    bytes[33] ^= 0x01; // config byte: fingerprint no longer matches
    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kBadHeader);
}

TEST(StreamIngest, RejectsRetiredLiveParallelBit)
{
    // Config flag bit 4 marked journals of the retired live
    // host-parallel engine. The header still validates as bytes (the
    // fingerprint is recomputed), but the shared header parser refuses
    // it by name, so an upload fails before any chunk is spooled.
    const std::string src = test::corpusTrace("taintcheck_tso_v2");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    std::string path = ::testing::TempDir() + "paralog_ingest_lp_" +
                       std::to_string(::getpid()) + ".trace";
    test::copyWithHeader(src, path, [](std::uint8_t *h) {
        h[29] |= kCfgLiveParallel;
    });
    std::vector<std::uint8_t> bytes = readFile(path);
    std::remove(path.c_str());
    ASSERT_GE(bytes.size(), kHeaderBytes);

    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), kHeaderBytes));
    EXPECT_EQ(in.errorCode(), IngestError::kBadHeader);
    EXPECT_NE(in.error().find("retired live host-parallel engine"),
              std::string::npos)
        << in.error();
    EXPECT_FALSE(in.complete());
}

TEST(StreamIngest, RejectsCorruptChunkCrcMidStream)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes();
    // Flip a byte inside the first chunk's payload.
    bytes[kHeaderBytes + 16 + 3] ^= 0x01;
    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kCrcMismatch);
    // Errors are sticky: more bytes don't resurrect the stream.
    std::uint8_t extra = 0;
    EXPECT_FALSE(in.feed(&extra, 1));
    EXPECT_EQ(in.errorCode(), IngestError::kCrcMismatch);
    EXPECT_FALSE(in.finish());
}

TEST(StreamIngest, TruncationAtEveryStructuralBoundary)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(60);
    std::vector<std::size_t> cuts = {0, 1, kHeaderBytes - 1,
                                     kHeaderBytes};
    for (std::size_t b : structuralBoundaries(bytes)) {
        if (b < bytes.size())
            cuts.push_back(b);
        if (b + 1 < bytes.size())
            cuts.push_back(b + 1);
    }
    cuts.push_back(bytes.size() - 1);
    for (std::size_t cut : cuts) {
        StreamIngest in;
        in.feed(bytes.data(), cut);
        EXPECT_FALSE(in.finish()) << "cut at " << cut;
        EXPECT_EQ(in.errorCode(), IngestError::kTruncated)
            << "cut at " << cut;
        EXPECT_FALSE(in.complete());
    }
}

TEST(StreamIngest, HeaderOnlyIsTruncated)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    StreamIngest in;
    EXPECT_TRUE(in.feed(bytes.data(), kHeaderBytes));
    EXPECT_TRUE(in.headerDone());
    EXPECT_FALSE(in.complete());
    EXPECT_FALSE(in.finish());
    EXPECT_EQ(in.errorCode(), IngestError::kTruncated);
    EXPECT_NE(in.error().find("footer"), std::string::npos);
}

TEST(StreamIngest, RejectsTrailingBytesAfterFooter)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    StreamIngest in;
    EXPECT_TRUE(in.feed(bytes.data(), bytes.size()));
    EXPECT_TRUE(in.complete());
    std::uint8_t extra = 0x42;
    EXPECT_FALSE(in.feed(&extra, 1));
    EXPECT_EQ(in.errorCode(), IngestError::kTrailingData);
    // complete() stays true — the stream WAS complete; the session
    // layer decides what a trailing-data violation means.
    EXPECT_TRUE(in.complete());
}

TEST(StreamIngest, EnforcesTotalByteBudget)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes();
    StreamIngest::Limits limits;
    limits.maxTotalBytes = bytes.size() / 2;
    StreamIngest in(limits);
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kTooLarge);
}

TEST(StreamIngest, EnforcesChunkByteBudget)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes();
    StreamIngest::Limits limits;
    limits.maxChunkBytes = 8; // every real chunk is bigger
    StreamIngest in(limits);
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kBadChunk);
}

TEST(StreamIngest, RejectsEmptyChunk)
{
    std::vector<std::uint8_t> bytes = makeTraceBytes(40);
    put32le(bytes.data() + kHeaderBytes + 8, 0); // payloadBytes = 0
    StreamIngest in;
    EXPECT_FALSE(in.feed(bytes.data(), bytes.size()));
    EXPECT_EQ(in.errorCode(), IngestError::kBadChunk);
}

TEST(StreamIngest, ErrorNamesAreStable)
{
    EXPECT_STREQ(ingestErrorName(IngestError::kNone), "none");
    EXPECT_STREQ(ingestErrorName(IngestError::kBadMagic), "bad-magic");
    EXPECT_STREQ(ingestErrorName(IngestError::kBadVersion),
                 "bad-version");
    EXPECT_STREQ(ingestErrorName(IngestError::kBadHeader),
                 "bad-header");
    EXPECT_STREQ(ingestErrorName(IngestError::kBadChunk), "bad-chunk");
    EXPECT_STREQ(ingestErrorName(IngestError::kCrcMismatch),
                 "crc-mismatch");
    EXPECT_STREQ(ingestErrorName(IngestError::kTooLarge), "too-large");
    EXPECT_STREQ(ingestErrorName(IngestError::kTrailingData),
                 "trailing-data");
    EXPECT_STREQ(ingestErrorName(IngestError::kTruncated), "truncated");
}

TEST(Crc32Incremental, MatchesOneShotForAnySplit)
{
    std::vector<std::uint8_t> data(1997);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    std::uint32_t expect = crc32(data.data(), data.size());
    for (std::size_t split : {std::size_t(0), std::size_t(1),
                              std::size_t(96), std::size_t(1000),
                              data.size() - 1, data.size()}) {
        Crc32 crc;
        crc.update(data.data(), split);
        crc.update(data.data() + split, data.size() - split);
        EXPECT_EQ(crc.value(), expect) << "split " << split;
    }
    Crc32 reset_check;
    reset_check.update(data.data(), 10);
    reset_check.reset();
    reset_check.update(data.data(), data.size());
    EXPECT_EQ(reset_check.value(), expect);
}

} // namespace
} // namespace paralog::trace
