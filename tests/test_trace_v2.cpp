/**
 * @file
 * Tests for the `paralog-trace-v2` container: the LZ entropy stage, the
 * columnar ops-block codec (both decode kernels checked against their
 * byte-wise oracle on the committed corpus, its corruptions and
 * hand-built token streams; LZ compress and CRC-32 against theirs), the
 * recorder's column emitter against the migration scanner and the
 * chunk-size rule, end-to-end record/replay equivalence with
 * v1 (bit-identical fingerprints, serial and concurrent), v1<->v2
 * migration round trips, and the corruption/truncation surface — every
 * structural boundary ±1, CRC-valid-but-garbage compressed payloads,
 * and seeded random flips over the CRC-protected payload bytes, all of
 * which must map to the reader's stable error taxonomy. The streaming
 * validator (paralogd's ingest path) is covered against v2 bytes too.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capture/compressor.hpp"
#include "common/lz.hpp"
#include "common/rng.hpp"
#include "common/varint.hpp"
#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "harness/tampered_journals.hpp"
#include "trace/migrate.hpp"
#include "trace/recorder.hpp"
#include "trace/stream_ingest.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
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

// ------------------------------- decode kernels vs byte-wise oracle

/**
 * The byte-wise LZ and block decoders that the bounded-copy kernels
 * replaced, and the byte-wise LZ compressor and CRC-32 that the
 * word-at-a-time kernels replaced, kept verbatim as differential
 * oracles (as test_shadow_fastpath keeps its per-byte fingerprint
 * loop). Every input must get the same accept/reject answer from a
 * decoder and its oracle and, when accepted, the same output bytes;
 * the encoders must agree byte for byte on every input.
 */
namespace oracle {

void
lzCompress(const std::uint8_t *data, std::size_t n,
           std::vector<std::uint8_t> &out)
{
    constexpr std::size_t kHashBits = 15;
    auto hash4 = [](const std::uint8_t *p) {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return (v * 2654435761u) >> (32 - kHashBits);
    };
    putVarint(out, n);
    if (n == 0)
        return;

    std::vector<std::size_t> table(std::size_t(1) << kHashBits,
                                   SIZE_MAX);
    std::size_t pos = 0;
    std::size_t lit_start = 0;

    auto flush = [&](std::size_t lit_end) {
        putVarint(out, lit_end - lit_start);
        out.insert(out.end(), data + lit_start, data + lit_end);
    };

    while (pos + kLzMinMatch <= n) {
        std::uint32_t h = hash4(data + pos);
        std::size_t cand = table[h];
        table[h] = pos;

        std::size_t len = 0;
        if (cand != SIZE_MAX &&
            std::memcmp(data + cand, data + pos, kLzMinMatch) == 0) {
            len = kLzMinMatch;
            while (pos + len < n && data[cand + len] == data[pos + len])
                ++len;
        }
        if (len < kLzMinMatch) {
            ++pos;
            continue;
        }
        flush(pos);
        putVarint(out, len - kLzMinMatch);
        putVarint(out, pos - cand);
        std::size_t stop = pos + len;
        for (pos += 1; pos + kLzMinMatch <= stop; pos += 2)
            table[hash4(data + pos)] = pos;
        pos = stop;
        lit_start = pos;
    }
    if (lit_start < n)
        flush(n);
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

bool
lzDecompress(const std::uint8_t *data, std::size_t n,
             std::vector<std::uint8_t> &out, std::size_t max_out)
{
    ByteCursor c(data, n);
    std::uint64_t raw_len = 0;
    if (!c.getVarint(raw_len) || raw_len > max_out)
        return false;
    out.clear();
    out.reserve(raw_len);

    while (out.size() < raw_len) {
        std::uint64_t lit = 0;
        if (!c.getVarint(lit) || lit > c.remaining() ||
            lit > raw_len - out.size())
            return false;
        out.insert(out.end(), c.pos, c.pos + lit);
        c.pos += lit;
        if (out.size() == raw_len)
            break;

        std::uint64_t len = 0, dist = 0;
        if (!c.getVarint(len) || !c.getVarint(dist))
            return false;
        len += kLzMinMatch;
        if (dist == 0 || dist > out.size() || len > raw_len - out.size())
            return false;
        std::size_t from = out.size() - static_cast<std::size_t>(dist);
        for (std::uint64_t i = 0; i < len; ++i)
            out.push_back(out[from + i]);
    }
    return c.atEnd();
}

bool
copyVarint(ByteCursor &src, std::vector<std::uint8_t> &dst)
{
    const std::uint8_t *start = src.pos;
    std::uint64_t v = 0;
    if (!src.getVarint(v))
        return false;
    dst.insert(dst.end(), start, src.pos);
    return true;
}

bool
decodeOpsBlock(const std::uint8_t *v2, std::size_t n,
               std::vector<std::uint8_t> &out, std::size_t max_v1_bytes)
{
    ByteCursor c(v2, n);
    std::uint64_t v1_len = 0;
    if (!c.getVarint(v1_len) || v1_len > max_v1_bytes)
        return false;

    std::vector<std::uint8_t> section;
    if (!oracle::lzDecompress(c.pos, c.remaining(), section,
                              2 * static_cast<std::size_t>(v1_len) + 1024))
        return false;

    ByteCursor s(section.data(), section.size());
    std::uint64_t op_count = 0;
    if (!s.getVarint(op_count) || op_count > v1_len)
        return false;
    ByteCursor col[6];
    for (auto &cc : col) {
        std::uint64_t len = 0;
        if (!s.getVarint(len) || len > s.remaining())
            return false;
        cc = ByteCursor(s.pos, static_cast<std::size_t>(len));
        s.pos += len;
    }
    if (!s.atEnd())
        return false;

    out.clear();
    out.reserve(v1_len);
    for (std::uint64_t i = 0; i < op_count; ++i) {
        std::uint8_t opcode = 0;
        if (!col[0].getByte(opcode) || opcode > trace::kMaxOpCode)
            return false;
        out.push_back(opcode);
        if (!copyVarint(col[1], out) || !copyVarint(col[2], out) ||
            !copyVarint(col[3], out))
            return false;
        std::uint64_t body_len = 0;
        if (!col[4].getVarint(body_len) ||
            body_len > col[5].remaining() ||
            out.size() + body_len > v1_len)
            return false;
        out.insert(out.end(), col[5].pos, col[5].pos + body_len);
        col[5].pos += body_len;
    }
    for (const auto &cc : col)
        if (!cc.atEnd())
            return false;
    return out.size() == v1_len;
}

} // namespace oracle

/** Structural ceiling the reader passes for one v2 ops chunk. */
inline constexpr std::size_t kMaxChunkV1Bytes = 16u << 20;

/**
 * Places inputs so they end exactly at a PROT_NONE page: a kernel that
 * reads even one byte past its input faults instead of reading heap
 * slack.
 */
class GuardedArena
{
  public:
    GuardedArena()
    {
        const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        len_ = kArenaBytes + page;
        map_ = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map_ == MAP_FAILED)
            std::abort();
        guard_ = static_cast<std::uint8_t *>(map_) + kArenaBytes;
        if (::mprotect(guard_, page, PROT_NONE) != 0)
            std::abort();
    }
    ~GuardedArena() { ::munmap(map_, len_); }
    GuardedArena(const GuardedArena &) = delete;
    GuardedArena &operator=(const GuardedArena &) = delete;

    const std::uint8_t *
    place(const std::vector<std::uint8_t> &bytes)
    {
        if (bytes.size() > kArenaBytes)
            std::abort();
        std::uint8_t *p = guard_ - bytes.size();
        if (!bytes.empty())
            std::memcpy(p, bytes.data(), bytes.size());
        return p;
    }

  private:
    static constexpr std::size_t kArenaBytes = 1u << 20;

    std::size_t len_ = 0;
    void *map_ = nullptr;
    std::uint8_t *guard_ = nullptr;
};

/** Runs each input, placed in a GuardedArena, through a decode kernel
 *  and its oracle and compares. */
class DecodeOracle
{
  public:
    void
    lz(const std::vector<std::uint8_t> &enc, std::size_t max_out,
       const std::string &what)
    {
        const std::uint8_t *p = arena_.place(enc);
        std::vector<std::uint8_t> want, got;
        bool w = oracle::lzDecompress(p, enc.size(), want, max_out);
        bool g = lzDecompress(p, enc.size(), got, max_out);
        tally(w, g, want, got, "lz " + what);
    }

    void
    block(const std::vector<std::uint8_t> &v2, std::size_t max_v1,
          const std::string &what)
    {
        const std::uint8_t *p = arena_.place(v2);
        std::vector<std::uint8_t> want, got;
        bool w = oracle::decodeOpsBlock(p, v2.size(), want, max_v1);
        bool g = trace::decodeOpsBlock(p, v2.size(), got, max_v1);
        tally(w, g, want, got, "block " + what);
    }

    std::size_t checked = 0;
    std::size_t accepted = 0;

  private:
    void
    tally(bool w, bool g, const std::vector<std::uint8_t> &want,
          const std::vector<std::uint8_t> &got, const std::string &what)
    {
        ++checked;
        EXPECT_EQ(g, w) << what;
        if (w && g) {
            ++accepted;
            EXPECT_EQ(got, want) << what;
        }
    }

    GuardedArena arena_;
};

/** Append the ops-chunk payloads of the recording at @p path, as
 *  stored in the file, to @p chunks. */
void
appendOpsChunks(const std::string &path,
                std::vector<std::vector<std::uint8_t>> &chunks)
{
    std::vector<std::uint8_t> file = slurp(path);
    EXPECT_GT(file.size(), trace::kHeaderBytes) << path;
    std::size_t off = trace::kHeaderBytes;
    while (off + 16 <= file.size()) {
        const std::uint32_t kind = trace::get32le(&file[off]);
        const std::uint32_t bytes = trace::get32le(&file[off + 8]);
        if (kind == trace::kChunkOps)
            chunks.emplace_back(file.begin() + off + 16,
                                file.begin() + off + 16 + bytes);
        off += 16 + bytes;
    }
    EXPECT_EQ(off, file.size()) << path << ": chunk walk";
}

/** Every v2 ops-chunk payload of the committed corpus; empty when
 *  PARALOG_CORPUS is unset (outside CTest). */
std::vector<std::vector<std::uint8_t>>
corpusV2OpsChunks()
{
    std::vector<std::vector<std::uint8_t>> chunks;
    for (const char *lg : {"addrcheck", "lockset", "memcheck", "taintcheck"}) {
        for (const char *mm : {"sc", "tso"}) {
            const std::string path = test::corpusTrace(
                std::string(lg) + "_" + mm + "_v2");
            if (path.empty())
                return {};
            appendOpsChunks(path, chunks);
        }
    }
    return chunks;
}

/** A v2 payload split at its v1Len varint. */
struct SplitPayload
{
    std::uint64_t v1Len = 0;
    std::vector<std::uint8_t> lz; ///< the LZ stream after v1Len
};

SplitPayload
splitPayload(const std::vector<std::uint8_t> &payload)
{
    SplitPayload sp;
    ByteCursor c(payload.data(), payload.size());
    EXPECT_TRUE(c.getVarint(sp.v1Len));
    sp.lz.assign(c.pos, c.end);
    return sp;
}

std::vector<std::uint8_t>
joinPayload(std::uint64_t v1_len, const std::vector<std::uint8_t> &lz)
{
    std::vector<std::uint8_t> out;
    putVarint(out, v1_len);
    out.insert(out.end(), lz.begin(), lz.end());
    return out;
}

/** A v2 payload of @p v1_len around a column section written from
 *  its fields @p f (opCount, six column lengths) and columns @p c,
 *  which need not agree. */
std::vector<std::uint8_t>
sectionPayload(std::uint64_t v1_len, const std::uint64_t (&f)[7],
               const std::vector<std::uint8_t> (&c)[6])
{
    std::vector<std::uint8_t> sec;
    putVarint(sec, f[0]);
    for (int k = 0; k < 6; ++k) {
        putVarint(sec, f[k + 1]);
        sec.insert(sec.end(), c[k].begin(), c[k].end());
    }
    std::vector<std::uint8_t> lz;
    lzCompress(sec.data(), sec.size(), lz);
    return joinPayload(v1_len, lz);
}

/** @p lz with its leading rawLen varint replaced by @p raw_len. */
std::vector<std::uint8_t>
withRawLen(const std::vector<std::uint8_t> &lz, std::uint64_t raw_len)
{
    ByteCursor c(lz.data(), lz.size());
    std::uint64_t old = 0;
    EXPECT_TRUE(c.getVarint(old));
    std::vector<std::uint8_t> out;
    putVarint(out, raw_len);
    out.insert(out.end(), c.pos, c.end);
    return out;
}

std::size_t
lzCeiling(std::uint64_t v1_len)
{
    return 2 * static_cast<std::size_t>(v1_len) + 1024;
}

TEST(DecodeKernelOracle, CorpusChunksDecodeIdentically)
{
    const auto chunks = corpusV2OpsChunks();
    if (chunks.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    DecodeOracle o;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const SplitPayload sp = splitPayload(chunks[i]);
        o.block(chunks[i], kMaxChunkV1Bytes, "chunk " + std::to_string(i));
        o.lz(sp.lz, lzCeiling(sp.v1Len), "chunk " + std::to_string(i));
    }
    EXPECT_EQ(o.accepted, o.checked) << "a committed chunk was refused";
    EXPECT_EQ(o.checked, 2 * chunks.size());
}

TEST(DecodeKernelOracle, FlippedTruncatedAndLengthEditedChunksAgree)
{
    const auto chunks = corpusV2OpsChunks();
    if (chunks.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    DecodeOracle o;
    Rng rng(19);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const std::vector<std::uint8_t> &payload = chunks[i];
        const SplitPayload sp = splitPayload(payload);
        const std::string tag = "chunk " + std::to_string(i);

        // Truncations: a spread of cuts, plus every one of the last 20
        // bytes, through both decoders.
        std::vector<std::size_t> cuts;
        for (std::size_t cut = 0; cut < payload.size();
             cut += 1 + payload.size() / 48)
            cuts.push_back(cut);
        for (std::size_t k = 1; k <= 20 && k <= payload.size(); ++k)
            cuts.push_back(payload.size() - k);
        for (std::size_t cut : cuts) {
            std::vector<std::uint8_t> cut_payload(payload.begin(),
                                                  payload.begin() + cut);
            o.block(cut_payload, kMaxChunkV1Bytes,
                    tag + " cut " + std::to_string(cut));
            if (cut < sp.lz.size()) {
                std::vector<std::uint8_t> cut_lz(sp.lz.begin(),
                                                 sp.lz.begin() + cut);
                o.lz(cut_lz, lzCeiling(sp.v1Len),
                     tag + " cut " + std::to_string(cut));
            }
        }

        // Seeded byte flips.
        for (int f = 0; f < 48; ++f) {
            std::vector<std::uint8_t> bad = payload;
            const std::size_t at = rng.below(bad.size());
            bad[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
            o.block(bad, kMaxChunkV1Bytes, tag + " flip " + std::to_string(at));
            std::vector<std::uint8_t> bad_lz = sp.lz;
            const std::size_t lz_at = rng.below(bad_lz.size());
            bad_lz[lz_at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
            o.lz(bad_lz, lzCeiling(sp.v1Len),
                 tag + " flip " + std::to_string(lz_at));
        }

        // Length-field edits: v1Len and the LZ rawLen, against both
        // decoders and against the exact ceilings.
        ByteCursor rc(sp.lz.data(), sp.lz.size());
        std::uint64_t raw_len = 0;
        ASSERT_TRUE(rc.getVarint(raw_len));
        for (std::int64_t d : {-17, -16, -1, 1, 15, 16}) {
            const std::string dt = " d=" + std::to_string(d);
            o.block(joinPayload(sp.v1Len + d, sp.lz), kMaxChunkV1Bytes,
                    tag + " v1Len" + dt);
            o.block(joinPayload(sp.v1Len, withRawLen(sp.lz, raw_len + d)),
                    kMaxChunkV1Bytes, tag + " rawLen" + dt);
            o.lz(withRawLen(sp.lz, raw_len + d), lzCeiling(sp.v1Len),
                 tag + " rawLen" + dt);
        }
        o.block(payload, static_cast<std::size_t>(sp.v1Len) - 1,
                tag + " ceiling v1Len-1");
        o.lz(sp.lz, static_cast<std::size_t>(raw_len) - 1,
             tag + " ceiling rawLen-1");

        // Column-section edits (recompressed, so the LZ stage passes
        // and the block rebuild meets them): opCount, each column
        // length, and the first and last body lengths.
        std::vector<std::uint8_t> section;
        ASSERT_TRUE(oracle::lzDecompress(sp.lz.data(), sp.lz.size(),
                                         section, lzCeiling(sp.v1Len)));
        ByteCursor sc(section.data(), section.size());
        std::uint64_t fields[7] = {};
        std::vector<std::uint8_t> cols[6];
        ASSERT_TRUE(sc.getVarint(fields[0]));
        for (int k = 0; k < 6; ++k) {
            ASSERT_TRUE(sc.getVarint(fields[k + 1]));
            ASSERT_LE(fields[k + 1], sc.remaining());
            cols[k].assign(sc.pos, sc.pos + fields[k + 1]);
            sc.pos += fields[k + 1];
        }
        auto rebuild = [&](const std::uint64_t (&f)[7],
                           const std::vector<std::uint8_t> (&c)[6],
                           const std::string &what) {
            o.block(sectionPayload(sp.v1Len, f, c), kMaxChunkV1Bytes,
                    tag + " " + what);
        };
        for (int k = 0; k < 7; ++k) {
            for (std::int64_t d : {-1, 1}) {
                std::uint64_t f[7];
                std::copy(std::begin(fields), std::end(fields), f);
                f[k] += d;
                rebuild(f, cols, "field " + std::to_string(k) + " d=" +
                                     std::to_string(d));
            }
        }
        // Body lengths are single-byte varints at the ends of column 4
        // in these chunks; editing one keeps every column length.
        for (std::size_t at : {std::size_t(0), cols[4].size() - 1}) {
            if (cols[4].empty() || (cols[4][at] & 0x80) ||
                (at > 0 && (cols[4][at - 1] & 0x80)))
                continue;
            for (int d : {-1, 1}) {
                std::vector<std::uint8_t> c2[6];
                std::copy(std::begin(cols), std::end(cols), c2);
                c2[4][at] = static_cast<std::uint8_t>(
                    (c2[4][at] + d) & 0x7F);
                rebuild(fields, c2,
                        "body len " + std::to_string(at) + " d=" +
                            std::to_string(d));
            }
        }
    }
    EXPECT_GT(o.checked, 100 * chunks.size());
}

/** Hand-built LZ stream: rawLen, then tokens as appended. */
struct LzStream
{
    std::vector<std::uint8_t> bytes;

    explicit LzStream(std::uint64_t raw_len) { putVarint(bytes, raw_len); }

    LzStream &
    lit(std::size_t n, std::uint8_t seed = 1)
    {
        putVarint(bytes, n);
        for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(static_cast<std::uint8_t>(seed + 37 * i));
        return *this;
    }

    LzStream &
    match(std::uint64_t len, std::uint64_t dist)
    {
        putVarint(bytes, len - kLzMinMatch);
        putVarint(bytes, dist);
        return *this;
    }
};

TEST(DecodeKernelOracle, HandBuiltStreamsAgree)
{
    DecodeOracle o;

    // Match distances 1-20 against a prefix shorter than, equal to and
    // longer than the distance, lengths 4-40, with the stream's rawLen
    // exact, one short (the match overruns) and one long (the stream
    // ends early), then an optional trailing literal.
    for (std::uint64_t dist = 1; dist <= 20; ++dist) {
        for (std::size_t prefix : {dist - 1, dist, dist + 3, std::size_t(20)}) {
            if (prefix == 0)
                continue;
            for (std::uint64_t len = kLzMinMatch; len <= 40; ++len) {
                for (std::size_t tail : {std::size_t(0), std::size_t(3),
                                         std::size_t(17)}) {
                    const std::uint64_t raw = prefix + len + tail;
                    for (std::int64_t d : {-1, 0, 1}) {
                        LzStream s(raw + d);
                        s.lit(prefix, static_cast<std::uint8_t>(dist));
                        s.match(len, dist);
                        if (tail)
                            s.lit(tail, 200);
                        const std::string what =
                            "dist " + std::to_string(dist) + " prefix " +
                            std::to_string(prefix) + " len " +
                            std::to_string(len) + " tail " +
                            std::to_string(tail) + " d " +
                            std::to_string(d);
                        o.lz(s.bytes, raw + 1, what);
                        o.lz(s.bytes, raw - 1, what + " ceiling");
                    }
                }
            }
        }
    }

    // Tokens ending exactly at rawLen, and one byte either side: a
    // literal-only stream, and a literal that overruns rawLen while
    // the input still has its bytes, alone or followed by a match.
    for (std::size_t raw = 0; raw <= 40; ++raw) {
        for (std::size_t n : {raw, raw + 1}) {
            if (n == 0 && raw == 0)
                continue;
            LzStream s(raw);
            s.lit(n);
            o.lz(s.bytes, 64, "literal " + std::to_string(n) + " of raw " +
                                  std::to_string(raw));
            if (n == 0)
                continue;
            s.match(kLzMinMatch, 1);
            o.lz(s.bytes, 64, "literal " + std::to_string(n) + " of raw " +
                                  std::to_string(raw) + ", then a match");
        }
        LzStream empty(raw);
        o.lz(empty.bytes, 64, "no tokens, raw " + std::to_string(raw));
    }

    // Literals within 16 bytes of the input end: a final literal of
    // 0-20 bytes with one byte missing, exact, or followed by 1-17
    // trailing bytes, after a match that leaves the output mid-stream.
    for (std::size_t n = 0; n <= 20; ++n) {
        for (int extra = -1; extra <= 17; ++extra) {
            const std::uint64_t raw = 8 + 12 + n;
            LzStream s(raw);
            s.lit(8, 5).match(12, 3);
            putVarint(s.bytes, n);
            const std::size_t have =
                extra < 0 ? (n == 0 ? 0 : n - 1) : n + extra;
            for (std::size_t i = 0; i < have; ++i)
                s.bytes.push_back(static_cast<std::uint8_t>(0xA0 + i));
            o.lz(s.bytes, 64,
                 "final literal " + std::to_string(n) + " extra " +
                     std::to_string(extra));
        }
    }

    // Seeded random token streams: literal runs 0-24, matches 4-30 at
    // distances up to one past the bytes written, rawLen exact or one
    // off.
    Rng rng(20);
    for (int it = 0; it < 4000; ++it) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> matches;
        std::vector<std::size_t> lits;
        std::uint64_t w = 0;
        const int tokens = 1 + static_cast<int>(rng.below(12));
        for (int t = 0; t < tokens; ++t) {
            lits.push_back(rng.below(25));
            w += lits.back();
            const std::uint64_t len = rng.range(kLzMinMatch, 30);
            const std::uint64_t dist = rng.range(1, w + 1);
            matches.emplace_back(len, dist);
            w += len;
        }
        const std::uint64_t raw = w + rng.below(3) - 1;
        LzStream s(raw);
        for (int t = 0; t < tokens; ++t) {
            s.lit(lits[t], static_cast<std::uint8_t>(it));
            s.match(matches[t].first, matches[t].second);
        }
        if (rng.chance(0.5))
            s.lit(rng.below(20), 77);
        o.lz(s.bytes, raw + 64, "random " + std::to_string(it));
    }
    EXPECT_GT(o.accepted, 1000u);
    EXPECT_LT(o.accepted, o.checked);
}

TEST(DecodeKernelOracle, HandBuiltBlocksAgree)
{
    // One retire op whose d_gseq varint is 1-11 bytes long (10 is the
    // longest ByteCursor accepts; an unterminated one runs off its
    // column), and whose body is 0-20 bytes, against v1Len exact and
    // one off either way.
    DecodeOracle o;
    for (std::size_t vlen = 1; vlen <= 11; ++vlen) {
        for (bool terminated : {true, false}) {
            std::vector<std::uint8_t> varint(vlen, 0x80);
            if (terminated)
                varint.back() = 0x01;
            for (std::size_t body = 0; body <= 20; ++body) {
                std::vector<std::uint8_t> cols[6] = {
                    {0}, varint, {0}, {0}, {}, {}};
                putVarint(cols[4], body);
                for (std::size_t i = 0; i < body; ++i)
                    cols[5].push_back(static_cast<std::uint8_t>(i + 1));
                std::vector<std::uint8_t> sec;
                putVarint(sec, 1);
                for (const auto &c : cols) {
                    putVarint(sec, c.size());
                    sec.insert(sec.end(), c.begin(), c.end());
                }
                std::vector<std::uint8_t> lz;
                lzCompress(sec.data(), sec.size(), lz);
                const std::uint64_t v1_len = 1 + vlen + 2 + body;
                for (std::uint64_t len : {v1_len - 1, v1_len, v1_len + 1})
                    o.block(joinPayload(len, lz), kMaxChunkV1Bytes,
                            "varint " + std::to_string(vlen) +
                                (terminated ? "" : " unterminated") +
                                " body " + std::to_string(body) +
                                " v1Len " + std::to_string(len));
            }
        }
    }
    EXPECT_GT(o.accepted, 100u);
    EXPECT_LT(o.accepted, o.checked);
}

// ------------------------------- encode kernels vs byte-wise oracle

/** LZ-compress @p in, placed in @p arena, with the kernel and with the
 *  oracle: the two streams must be equal and decode back to @p in. */
void
expectSameLz(GuardedArena &arena, const std::vector<std::uint8_t> &in,
             const std::string &what)
{
    const std::uint8_t *p = arena.place(in);
    std::vector<std::uint8_t> want, got, back;
    oracle::lzCompress(p, in.size(), want);
    lzCompress(p, in.size(), got);
    ASSERT_EQ(got, want) << what;
    ASSERT_TRUE(lzDecompress(got.data(), got.size(), back, in.size()))
        << what;
    EXPECT_EQ(back, in) << what;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n, std::uint64_t alphabet = 256)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.below(alphabet));
    return v;
}

TEST(EncodeKernelOracle, LzCorpusSectionsCompressIdentically)
{
    const auto chunks = corpusV2OpsChunks();
    if (chunks.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    GuardedArena arena;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const SplitPayload sp = splitPayload(chunks[i]);
        std::vector<std::uint8_t> section, again;
        ASSERT_TRUE(lzDecompress(sp.lz.data(), sp.lz.size(), section,
                                 lzCeiling(sp.v1Len)));
        expectSameLz(arena, section, "chunk " + std::to_string(i));
        lzCompress(section.data(), section.size(), again);
        EXPECT_EQ(again, sp.lz) << "chunk " << i << " re-compresses "
                                << "to other bytes than committed";
    }
}

TEST(EncodeKernelOracle, LzSeededRandomInputsCompressIdentically)
{
    Rng rng(21);
    GuardedArena arena;
    for (int i = 0; i < 300; ++i) {
        // Small alphabets and copied spans give matches of every
        // length; a full alphabet gives literal runs.
        const std::uint64_t alphabet = i % 3 == 0 ? 256 : 1 + rng.below(6);
        std::vector<std::uint8_t> in =
            randomBytes(rng, rng.below(3000), alphabet);
        for (int k = 0; k < 8 && in.size() > 8; ++k) {
            const std::size_t from = rng.below(in.size() - 4);
            const std::size_t len =
                1 + rng.below(std::min<std::size_t>(300, in.size() - from));
            in.insert(in.end(), in.begin() + from, in.begin() + from + len);
            in.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        expectSameLz(arena, in, "random input " + std::to_string(i));
    }
}

TEST(EncodeKernelOracle, LzLongConstantRunsCompressIdentically)
{
    GuardedArena arena;
    for (std::size_t n : {std::size_t{4096}, std::size_t{65543},
                          std::size_t{300001}}) {
        for (std::uint8_t b : {std::uint8_t{0}, std::uint8_t{0xFF}}) {
            std::vector<std::uint8_t> in(n, b);
            expectSameLz(arena, in, "run of " + std::to_string(n));
            in[n / 2] ^= 1; // a run broken in the middle
            in[n - 1] ^= 1; // and at its last byte
            expectSameLz(arena, in, "broken run of " + std::to_string(n));
        }
    }
}

TEST(EncodeKernelOracle, LzEveryLengthUpTo64CompressesIdentically)
{
    Rng rng(64);
    GuardedArena arena;
    for (std::size_t n = 0; n <= 64; ++n) {
        const std::string what = "length " + std::to_string(n);
        expectSameLz(arena, std::vector<std::uint8_t>(n, 0x2A), what);
        for (std::size_t period = 2; period <= 9; ++period) {
            std::vector<std::uint8_t> in(n);
            for (std::size_t i = 0; i < n; ++i)
                in[i] = static_cast<std::uint8_t>(i % period);
            expectSameLz(arena, in, what);
        }
        for (std::uint64_t alphabet : {2, 4, 256})
            expectSameLz(arena, randomBytes(rng, n, alphabet), what);
    }
}

TEST(EncodeKernelOracle, LzMatchesEndingAtEachOfTheLast16Bytes)
{
    // x + noise + x[0, len) + tail: the repeat of x is a match of len
    // bytes ending tail.size() bytes before the end of the input (the
    // tail's first byte differs from x[len]).
    Rng rng(16);
    GuardedArena arena;
    const std::vector<std::uint8_t> x = randomBytes(rng, 48);
    for (std::size_t tail = 0; tail < 16; ++tail) {
        for (std::size_t len = kLzMinMatch; len <= 40; ++len) {
            std::vector<std::uint8_t> in = x;
            for (int k = 0; k < 16; ++k)
                in.push_back(static_cast<std::uint8_t>(0xA0 + k));
            in.insert(in.end(), x.begin(), x.begin() + len);
            for (std::size_t k = 0; k < tail; ++k)
                in.push_back(static_cast<std::uint8_t>(x[len] ^ (0x5A + k)));
            expectSameLz(arena, in,
                         "match of " + std::to_string(len) + " ending " +
                             std::to_string(tail) + " bytes before the end");
        }
    }
}

TEST(EncodeKernelOracle, CrcCheckValue)
{
    const std::string s = "123456789";
    const auto *p = reinterpret_cast<const std::uint8_t *>(s.data());
    EXPECT_EQ(trace::crc32(p, s.size()), 0xCBF43926u);
    EXPECT_EQ(oracle::crc32(p, s.size()), 0xCBF43926u);
    trace::Crc32 c;
    c.update(p, s.size());
    EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(EncodeKernelOracle, CrcEveryLengthAtEveryAlignment)
{
    Rng rng(32);
    GuardedArena arena;
    for (std::size_t n = 0; n <= 64; ++n) {
        for (std::size_t align = 0; align < 8; ++align) {
            // Exactly sized heap buffer: the input ends where the
            // allocation does.
            std::vector<std::uint8_t> buf = randomBytes(rng, align + n);
            const std::uint8_t *p = buf.data() + align;
            const std::uint32_t want = oracle::crc32(p, n);
            EXPECT_EQ(trace::crc32(p, n), want) << n << " at +" << align;
            trace::Crc32 c;
            c.update(p, n);
            EXPECT_EQ(c.value(), want) << n << " at +" << align;
        }
        const std::vector<std::uint8_t> in = randomBytes(rng, n);
        EXPECT_EQ(trace::crc32(arena.place(in), n),
                  oracle::crc32(in.data(), n))
            << n << " bytes ending at a guard page";
    }
}

TEST(EncodeKernelOracle, Crc32FedAtEverySplitPoint)
{
    Rng rng(8);
    const std::vector<std::uint8_t> in = randomBytes(rng, 200);
    const std::uint32_t want = oracle::crc32(in.data(), in.size());
    for (std::size_t i = 0; i <= in.size(); ++i) {
        for (std::size_t j = i; j <= in.size(); j += 7) {
            trace::Crc32 c;
            c.update(in.data(), i);
            c.update(in.data() + i, j - i);
            c.update(in.data() + j, in.size() - j);
            EXPECT_EQ(c.value(), want) << "split at " << i << ", " << j;
        }
    }
    trace::Crc32 bytewise;
    for (std::uint8_t b : in)
        bytewise.update(&b, 1);
    EXPECT_EQ(bytewise.value(), want);
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

// -------------------------------------- column encoder vs the scanner

/**
 * The recorder writes each op straight into the v2 columns; migration
 * splits v1 bytes into the same columns with the structural scanner.
 * The two must agree byte for byte, and both containers must cut their
 * chunks where a chunk's ops reach kChunkTargetBytes as v1 bytes.
 */
class ColumnEncoder : public QuietTest
{
  protected:
    /** Every ops-chunk payload of @p path as v1 bytes, per thread. */
    static std::vector<std::vector<std::vector<std::uint8_t>>>
    opsChunksByThread(const std::string &path)
    {
        trace::TraceReader reader(path);
        EXPECT_TRUE(reader.ok()) << reader.error();
        std::vector<std::vector<std::vector<std::uint8_t>>> chunks(
            reader.config().appThreads);
        std::vector<std::uint8_t> payload;
        for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
            if (reader.chunkKind(i) != trace::kChunkOps)
                continue;
            EXPECT_TRUE(reader.chunkPayload(i, payload)) << reader.error();
            chunks[reader.chunkTid(i)].push_back(payload);
        }
        return chunks;
    }

    /** Size of the last v1 op in @p v1 (walked with the scanner). */
    static std::size_t
    lastOpBytes(const std::vector<std::uint8_t> &v1)
    {
        const std::uint8_t *p = v1.data();
        const std::uint8_t *end = p + v1.size();
        std::size_t last = 0, prelude = 0;
        while (p < end) {
            const std::uint8_t *op = p;
            if (!trace::scanOneOp(p, end, prelude))
                return 0;
            last = static_cast<std::size_t>(p - op);
        }
        return last;
    }
};

TEST_F(ColumnEncoder, DirectRecordingsEqualMigrationAndCoverEveryOpKind)
{
    struct Cell
    {
        WorkloadKind workload;
        LifeguardKind lifeguard;
        std::uint32_t cores;
        MemoryModel mm;
        std::uint64_t scale;
    };
    // lu/TSO alone emits all eight op kinds, in 3 ops chunks per thread.
    const Cell cells[] = {
        {WorkloadKind::kLu, LifeguardKind::kTaintCheck, 2, MemoryModel::kTSO,
         2000},
        {WorkloadKind::kFmm, LifeguardKind::kAddrCheck, 4, MemoryModel::kSC,
         2000},
        {WorkloadKind::kFmm, LifeguardKind::kTaintCheck, 4,
         MemoryModel::kTSO, 1000},
    };
    std::array<std::uint64_t, trace::kMaxOpCode + 1> kinds{};
    for (const Cell &c : cells) {
        const std::string what = std::string(toString(c.workload)) + "/" +
                                 toString(c.lifeguard);
        TempTrace v1("col_v1"), v2("col_v2"), up("col_up"), down("col_down");
        recordExperiment(makeSpec(c.workload, c.lifeguard, c.cores, c.mm,
                                  c.scale, v1.path(), 1));
        recordExperiment(makeSpec(c.workload, c.lifeguard, c.cores, c.mm,
                                  c.scale, v2.path(), 2));

        // v1 -> v2 goes through the scanner; v2 -> v1 writes the
        // decoded bytes, against which the recorder's v1 flush is
        // checked.
        ASSERT_TRUE(trace::migrateTrace(v1.path(), up.path(), 2).ok) << what;
        ASSERT_TRUE(trace::migrateTrace(v2.path(), down.path(), 1).ok)
            << what;
        EXPECT_EQ(slurp(up.path()), slurp(v2.path())) << what;
        EXPECT_EQ(slurp(down.path()), slurp(v1.path())) << what;

        // The chunk rule: every chunk but a thread's last reaches the
        // target with its last op and not before.
        const auto chunks = opsChunksByThread(v1.path());
        EXPECT_EQ(chunks, opsChunksByThread(v2.path())) << what;
        for (std::size_t t = 0; t < chunks.size(); ++t) {
            for (std::size_t i = 0; i < chunks[t].size(); ++i) {
                const std::size_t bytes = chunks[t][i].size();
                const std::size_t last = lastOpBytes(chunks[t][i]);
                ASSERT_GT(last, 0u) << what << " t" << t << " chunk " << i;
                EXPECT_LT(bytes - last, trace::kChunkTargetBytes)
                    << what << " t" << t << " chunk " << i;
                if (i + 1 < chunks[t].size()) {
                    EXPECT_GE(bytes, trace::kChunkTargetBytes)
                        << what << " t" << t << " chunk " << i;
                }
            }
            if (&c == &cells[0]) {
                EXPECT_GE(chunks[t].size(), 3u) << what << " t" << t;
            }
        }

        trace::TraceReader reader(v2.path());
        ASSERT_TRUE(reader.ok()) << reader.error();
        trace::TraceOp op;
        for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
            auto stream = reader.opStream(t);
            while (stream.next(op))
                ++kinds[static_cast<std::size_t>(op.op)];
        }
        ASSERT_TRUE(reader.ok()) << reader.error();
    }
    for (std::size_t k = 0; k < kinds.size(); ++k)
        EXPECT_GT(kinds[k], 0u) << "op kind " << k << " never recorded";
}

TEST_F(ColumnEncoder, ChunkFlushesWhenItsV1BytesReachTheTarget)
{
    // Ops of a 4-byte prelude (opcode, three 1-byte deltas) and a body
    // of arbitrary bytes: the writer checks the layout, not the grammar.
    for (std::uint32_t format : {1u, 2u}) {
        TempTrace tmp("flush_v" + std::to_string(format));
        trace::TraceConfig cfg;
        cfg.appThreads = 1;
        {
            trace::TraceWriter w(tmp.path(), cfg, format);
            auto add = [&w](std::size_t body) {
                auto &b = w.ops(0).beginOp(0, 1, 2, 3);
                b.insert(b.end(), body, 0x7E);
                w.endOp(0, false);
            };
            add(trace::kChunkTargetBytes - 1 - 4); // target - 1: no flush
            add(0);                                // target + 3: flush
            add(trace::kChunkTargetBytes - 4);     // exactly the target
            add(0);                                // the tail at finalize
            trace::TraceFooter footer;
            footer.result.app.resize(1);
            footer.result.lifeguard.resize(1);
            ASSERT_TRUE(w.finalize(footer)) << w.error();
        }
        const auto chunks = opsChunksByThread(tmp.path());
        ASSERT_EQ(chunks.size(), 1u);
        std::vector<std::size_t> sizes;
        for (const auto &c : chunks[0])
            sizes.push_back(c.size());
        EXPECT_EQ(sizes, (std::vector<std::size_t>{
                             trace::kChunkTargetBytes + 3,
                             trace::kChunkTargetBytes, 4}))
            << "v" << format;
    }
}

TEST_F(ColumnEncoder, CorpusPairsMigrateIntoEachOther)
{
    for (const char *lg : {"addrcheck", "lockset", "memcheck", "taintcheck"}) {
        for (const char *mm : {"sc", "tso"}) {
            const std::string stem = std::string(lg) + "_" + mm;
            const std::string v1 = test::corpusTrace(stem + "_v1");
            const std::string v2 = test::corpusTrace(stem + "_v2");
            if (v1.empty())
                GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
            TempTrace up("corpus_up"), down("corpus_down");
            ASSERT_TRUE(trace::migrateTrace(v1, up.path(), 2).ok) << stem;
            ASSERT_TRUE(trace::migrateTrace(v2, down.path(), 1).ok) << stem;
            EXPECT_EQ(slurp(up.path()), slurp(v2)) << stem;
            EXPECT_EQ(slurp(down.path()), slurp(v1)) << stem;
        }
    }
}

// -------------------------------------- column op stream vs v1 parse

/**
 * The first field of the op's own kind in which @p a and @p b differ,
 * or "" if none: the fields OpStream::next() writes for that kind (see
 * TraceOp; the other kinds' fields are unspecified).
 */
std::string
opDiff(const trace::TraceOp &a, const trace::TraceOp &b)
{
    using trace::OpCode;
    if (a.op != b.op)
        return "op";
    if (a.gseq != b.gseq || a.cycle != b.cycle || a.lgStep != b.lgStep)
        return "gseq/cycle/lgStep";
    switch (a.op) {
      case OpCode::kRetire:
        return a.retired == b.retired ? "" : "retired";
      case OpCode::kAppend:
      case OpCode::kAppendCa: {
        const EventRecord &x = a.rec, &y = b.rec;
        if (a.chargedBytes != b.chargedBytes)
            return "chargedBytes";
        if (x.rid != y.rid || x.addr != y.addr || x.value != y.value ||
            x.caSeq != y.caSeq || x.appendCycle != y.appendCycle ||
            x.tid != y.tid || x.chargedBytes != y.chargedBytes ||
            x.type != y.type || x.dst != y.dst || x.src != y.src ||
            x.size != y.size || x.syscall != y.syscall ||
            x.caKind != y.caKind || x.consumesVersion != y.consumesVersion ||
            x.wrapper != y.wrapper)
            return "rec";
        if (x.hasColdBlock() != y.hasColdBlock() || x.range() != y.range() ||
            x.version() != y.version() || x.arcs() != y.arcs())
            return "rec cold block";
        return "";
      }
      case OpCode::kAttachArcs:
        return a.rid == b.rid && a.arcs == b.arcs ? "" : "rid/arcs";
      case OpCode::kAnnotateConsume:
        return a.rid == b.rid && a.version == b.version ? ""
                                                        : "rid/version";
      case OpCode::kInsertProduce:
        return a.rid == b.rid && a.version == b.version &&
                       a.addr == b.addr && a.size == b.size
                   ? ""
                   : "rid/version/addr/size";
      case OpCode::kVisLimit:
        return a.visLimit == b.visLimit ? "" : "visLimit";
      case OpCode::kCaBroadcast: {
        const CaBroadcast &x = a.ca, &y = b.ca;
        return x.seq == y.seq && x.issuer == y.issuer &&
                       x.issuerEventRid == y.issuerEventRid &&
                       x.kind == y.kind && x.range == y.range &&
                       x.arrivalRid == y.arrivalRid &&
                       x.waitersRemaining == y.waitersRemaining
                   ? ""
                   : "ca";
      }
    }
    return "unknown op";
}

/**
 * Migrate the v2 recording at @p v2 to v1, which re-interleaves every
 * ops chunk with decodeOpsBlock, and read both: the v2 stream, reading
 * the columns in place, must yield the v1 parse's ops field for field
 * and end where it ends. Returns the number of ops compared.
 */
std::uint64_t
expectColumnsMatchV1Parse(const std::string &v2, const std::string &what)
{
    TempTrace v1("diff_v1");
    const trace::MigrateResult m = trace::migrateTrace(v2, v1.path(), 1);
    EXPECT_TRUE(m.ok) << what << ": " << m.error;
    trace::TraceReader cols(v2), bytes(v1.path());
    EXPECT_TRUE(cols.ok() && bytes.ok())
        << what << ": " << cols.error() << bytes.error();
    if (!cols.ok() || !bytes.ok())
        return 0;
    EXPECT_EQ(cols.formatVersion(), trace::kFormatVersionV2) << what;
    EXPECT_EQ(bytes.formatVersion(), trace::kFormatVersion) << what;

    std::uint64_t n = 0;
    trace::TraceOp a, b;
    for (ThreadId t = 0; t < cols.config().appThreads; ++t) {
        auto sa = cols.opStream(t), sb = bytes.opStream(t);
        for (std::uint64_t i = 0;; ++i, ++n) {
            const bool na = sa.next(a), nb = sb.next(b);
            if (na != nb) {
                ADD_FAILURE() << what << " t" << t << ": op " << i
                              << " read from one stream only";
                return n;
            }
            if (!na)
                break;
            const std::string d = opDiff(a, b);
            if (!d.empty()) {
                ADD_FAILURE() << what << " t" << t << " op " << i
                              << " (kind " << static_cast<int>(a.op)
                              << "): " << d << " differs";
                return n;
            }
        }
    }
    EXPECT_TRUE(cols.ok()) << what << ": " << cols.error();
    EXPECT_TRUE(bytes.ok()) << what << ": " << bytes.error();
    return n;
}

/** Header config for a hand-built one- or two-thread journal. */
trace::TraceConfig
handBuiltConfig(std::uint32_t threads)
{
    trace::TraceConfig cfg;
    cfg.appThreads = threads;
    return cfg;
}

/** Footer for a hand-built journal whose ops end by @p cycles. */
RunResult
handBuiltResult(std::uint32_t threads, Cycle cycles)
{
    RunResult r;
    r.app.resize(threads);
    r.lifeguard.resize(threads);
    r.totalCycles = cycles;
    return r;
}

/** Appends records through one StreamCompressor per thread, as the
 *  capture unit does, so the record decoder can read them back. */
class AppendSource
{
  public:
    AppendSource(trace::TraceRecorder &rec, std::uint32_t threads)
        : rec_(rec), enc_(threads), rid_(threads, 0)
    {
    }

    /** Append @p r on @p tid with the next rid; returns that rid. */
    RecordId
    append(ThreadId tid, EventRecord r, bool ca = false)
    {
        r.tid = tid;
        r.rid = ++rid_[tid];
        payload_.clear();
        const std::uint32_t charged = enc_[tid].encode(r, &payload_);
        if (ca)
            rec_.onAppendCa(tid, r, charged, payload_);
        else
            rec_.onAppend(tid, r, charged, payload_);
        return r.rid;
    }

  private:
    trace::TraceRecorder &rec_;
    std::vector<StreamCompressor> enc_;
    std::vector<RecordId> rid_;
    std::vector<std::uint8_t> payload_;
};

/** A record of @p type with fields to match (and @p arcs arcs). */
EventRecord
recordOf(EventType type, std::uint64_t i, std::size_t arcs = 0)
{
    EventRecord r;
    r.type = type;
    r.addr = 0x10000 + 64 * i;
    r.size = 8;
    r.dst = static_cast<RegId>(1 + i % 7);
    r.src = static_cast<RegId>(2 + i % 5);
    switch (type) {
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
        r.addr = 0;
        r.setRange(AddrRange{0x80000 + 256 * i, 0x80000 + 256 * i + 96});
        r.caSeq = i;
        break;
      case EventType::kCaBegin:
      case EventType::kCaEnd:
        r.addr = 0;
        r.value = i;
        r.caKind = HighLevelKind::kFreeBegin;
        r.setRange(AddrRange{0x90000, 0x90000 + 32 * (1 + i % 4)});
        break;
      default:
        break;
    }
    if (i % 3 == 0)
        r.setVersion(VersionTag{1, 1000 + i});
    for (std::size_t k = 0; k < arcs; ++k)
        r.mutableArcs().push_back(DepArc{1, 300 * k + i});
    return r;
}

class ColumnStream : public QuietTest
{
};

TEST_F(ColumnStream, CorpusFilesAndTheirMigrationsMatchTheV1Parse)
{
    for (const char *lg : {"addrcheck", "lockset", "memcheck", "taintcheck"}) {
        for (const char *mm : {"sc", "tso"}) {
            const std::string stem = std::string(lg) + "_" + mm;
            const std::string v1 = test::corpusTrace(stem + "_v1");
            const std::string v2 = test::corpusTrace(stem + "_v2");
            if (v1.empty())
                GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
            EXPECT_GT(expectColumnsMatchV1Parse(v2, stem + "_v2"), 0u);
            TempTrace up("diff_up");
            ASSERT_TRUE(trace::migrateTrace(v1, up.path(), 2).ok) << stem;
            EXPECT_GT(expectColumnsMatchV1Parse(up.path(), stem + "_v1 up"),
                      0u);
        }
    }
}

TEST_F(ColumnStream, HandBuiltOpsOfEveryKindMatchTheV1Parse)
{
    // Two threads; every op kind, in rotating order, with bodies from
    // one byte to several hundred (two-byte length varints).
    TempTrace tmp("hand");
    {
        trace::TraceRecorder rec(tmp.path(), handBuiltConfig(2),
                                 trace::kFormatVersionV2);
        ASSERT_TRUE(rec.ok()) << rec.error();
        AppendSource src(rec, 2);
        const EventType types[] = {
            EventType::kLoad,      EventType::kStore,
            EventType::kMallocEnd, EventType::kFreeBegin,
            EventType::kMovImm,    EventType::kLockAcquire};
        RecordId retired = 0;
        Cycle now = 0;
        for (std::uint64_t i = 0; i < 600; ++i) {
            const ThreadId t = static_cast<ThreadId>(i % 2);
            rec.setNow(now += 1 + (i % 5) * 40);
            rec.noteLgStep(static_cast<std::uint32_t>(i % 3));
            std::vector<DepArc> arcs;
            for (std::uint64_t k = 0; k < i % 101; ++k)
                arcs.push_back(DepArc{static_cast<ThreadId>(1 - t),
                                      k * 5000 + i});
            switch (i % 8) {
              case 0:
                retired += 1ull << (7 * (i % 9)); // 1- to 9-byte varints
                rec.onRetire(t, retired);
                break;
              case 1:
                src.append(t, recordOf(types[i % 6], i, i % 41));
                break;
              case 2:
                src.append(t, recordOf(EventType::kCaBegin, i), true);
                break;
              case 3:
                rec.onAttachArcs(t, 7 + i, arcs);
                break;
              case 4:
                rec.onAnnotateConsume(t, 9 + i,
                                      VersionTag{1 - t, 3 * i});
                break;
              case 5:
                rec.onInsertProduce(t, 11 + i, VersionTag{t, 5 * i},
                                    0x7fff0000ull + 1024 * i,
                                    static_cast<std::uint8_t>(1 << (i % 4)));
                break;
              case 6:
                rec.onVisibilityLimit(
                    t, i % 3 == 0 ? kInvalidRecord : 100 * i);
                break;
              case 7: {
                CaBroadcast b;
                b.seq = i;
                b.issuer = t;
                b.issuerEventRid = 40 + i;
                b.kind = static_cast<HighLevelKind>(i % 4);
                b.range = AddrRange{0x4000 * i, 0x4000 * i + 64 + i};
                for (std::uint64_t k = 0; k < i % 97; ++k)
                    b.arrivalRid.push_back(k % 5 == 0 ? kInvalidRecord
                                                      : 200 * k + i);
                rec.onCaBroadcast(b);
                break;
              }
            }
        }
        ASSERT_TRUE(rec.finalize(handBuiltResult(2, now))) << rec.error();
    }

    // Coverage, read off the columns themselves: all eight opcodes, and
    // body lengths from one byte to past 127.
    std::vector<std::vector<std::uint8_t>> chunks;
    appendOpsChunks(tmp.path(), chunks);
    std::array<std::uint64_t, trace::kMaxOpCode + 1> kinds{};
    std::uint64_t min_body = ~0ull, max_body = 0;
    std::vector<std::uint8_t> section;
    for (const auto &v2 : chunks) {
        trace::OpsBlock b;
        ASSERT_TRUE(trace::parseOpsBlock(v2.data(), v2.size(), section,
                                         kMaxChunkV1Bytes, b));
        for (const std::uint8_t *p = b.col[trace::kColOpcode].pos;
             p != b.col[trace::kColOpcode].end; ++p)
            ++kinds[*p];
        std::uint64_t len = 0;
        while (b.col[trace::kColBodyLen].getVarint(len)) {
            min_body = std::min(min_body, len);
            max_body = std::max(max_body, len);
        }
    }
    for (std::size_t k = 0; k < kinds.size(); ++k)
        EXPECT_GT(kinds[k], 0u) << "op kind " << k;
    EXPECT_EQ(min_body, 1u);
    EXPECT_GT(max_body, 300u);

    EXPECT_EQ(expectColumnsMatchV1Parse(tmp.path(), "hand-built"), 600u);
}

TEST_F(ColumnStream, EachOpWritesItsOwnFieldsAfterAnyOtherKind)
{
    // One reused TraceOp across a stream that follows each kind with
    // the others: every op's own fields must be its own, never left
    // over from an earlier op (a shorter arc or arrival list, or a
    // record cold block, would show through).
    for (std::uint32_t format :
         {trace::kFormatVersion, trace::kFormatVersionV2}) {
        const std::string fmt = "v" + std::to_string(format);
        TempTrace tmp("fields");
        CaBroadcast wide, narrow;
        wide.seq = 3;
        wide.issuer = 0;
        wide.issuerEventRid = 1;
        wide.kind = HighLevelKind::kFreeBegin;
        wide.range = AddrRange{0x5000, 0x5100};
        wide.arrivalRid = {7, kInvalidRecord, 9, 12};
        narrow = wide;
        narrow.seq = 4;
        narrow.kind = HighLevelKind::kMallocEnd;
        narrow.range = AddrRange{0x6000, 0x6008};
        narrow.arrivalRid = {kInvalidRecord};
        const std::vector<DepArc> three = {{1, 2}, {1, 3}, {1, 5}};
        {
            trace::TraceRecorder rec(tmp.path(), handBuiltConfig(2), format);
            ASSERT_TRUE(rec.ok()) << rec.error();
            AppendSource src(rec, 2);
            src.append(0, recordOf(EventType::kMallocEnd, 3, 4)); // cold
            rec.onCaBroadcast(wide);
            rec.onAttachArcs(0, 1, three);
            src.append(0, recordOf(EventType::kLoad, 1));          // no cold
            rec.onCaBroadcast(narrow);
            rec.onAttachArcs(0, 2, {});
            rec.onInsertProduce(0, 2, VersionTag{1, 8}, 0x7000, 4);
            rec.onAnnotateConsume(0, 2, VersionTag{1, 9});
            src.append(0, recordOf(EventType::kCaEnd, 4), true);
            rec.onVisibilityLimit(0, 12);
            rec.onRetire(0, 5);
            rec.onVisibilityLimit(0, kInvalidRecord);
            ASSERT_TRUE(rec.finalize(handBuiltResult(2, 10)))
                << rec.error();
        }
        trace::TraceReader reader(tmp.path());
        ASSERT_TRUE(reader.ok()) << reader.error();
        auto s = reader.opStream(0);
        trace::TraceOp op;
        using trace::OpCode;
        auto expect_kind = [&](OpCode k) {
            ASSERT_TRUE(s.next(op)) << fmt << ": " << reader.error();
            ASSERT_EQ(op.op, k) << fmt;
        };

        expect_kind(OpCode::kAppend);
        EXPECT_TRUE(op.rec.hasColdBlock()) << fmt;
        EXPECT_EQ(op.rec.arcs().size(), 4u) << fmt;

        expect_kind(OpCode::kCaBroadcast);
        EXPECT_EQ(op.ca.arrivalRid, wide.arrivalRid) << fmt;
        EXPECT_EQ(op.ca.waitersRemaining, 3u) << fmt;

        expect_kind(OpCode::kAttachArcs);
        EXPECT_EQ(op.rid, 1u) << fmt;
        EXPECT_EQ(op.arcs, three) << fmt;

        expect_kind(OpCode::kAppend);
        EXPECT_EQ(op.rec.type, EventType::kLoad) << fmt;
        EXPECT_FALSE(op.rec.hasColdBlock()) << fmt;
        EXPECT_TRUE(op.rec.arcs().empty()) << fmt;
        EXPECT_EQ(op.rec.range(), AddrRange{}) << fmt;
        EXPECT_EQ(op.rec.caSeq, kNoCaSeq) << fmt;

        expect_kind(OpCode::kCaBroadcast);
        EXPECT_EQ(op.ca.seq, 4u) << fmt;
        EXPECT_EQ(op.ca.kind, HighLevelKind::kMallocEnd) << fmt;
        EXPECT_EQ(op.ca.range, narrow.range) << fmt;
        EXPECT_EQ(op.ca.arrivalRid, narrow.arrivalRid) << fmt;
        EXPECT_EQ(op.ca.waitersRemaining, 0u) << fmt;
        EXPECT_EQ(op.ca.issuer, 0u) << fmt;

        expect_kind(OpCode::kAttachArcs);
        EXPECT_EQ(op.rid, 2u) << fmt;
        EXPECT_TRUE(op.arcs.empty()) << fmt;

        expect_kind(OpCode::kInsertProduce);
        EXPECT_EQ(op.rid, 2u) << fmt;
        EXPECT_EQ(op.version, (VersionTag{1, 8})) << fmt;
        EXPECT_EQ(op.addr, 0x7000u) << fmt;
        EXPECT_EQ(op.size, 4u) << fmt;

        expect_kind(OpCode::kAnnotateConsume);
        EXPECT_EQ(op.rid, 2u) << fmt;
        EXPECT_EQ(op.version, (VersionTag{1, 9})) << fmt;

        expect_kind(OpCode::kAppendCa);
        EXPECT_EQ(op.rec.type, EventType::kCaEnd) << fmt;
        EXPECT_EQ(op.rec.value, 4u) << fmt;
        EXPECT_TRUE(op.rec.arcs().empty()) << fmt;
        EXPECT_EQ(op.rec.version(), VersionTag{}) << fmt;

        expect_kind(OpCode::kVisLimit);
        EXPECT_EQ(op.visLimit, 12u) << fmt;

        expect_kind(OpCode::kRetire);
        EXPECT_EQ(op.retired, 5u) << fmt;

        expect_kind(OpCode::kVisLimit);
        EXPECT_EQ(op.visLimit, kInvalidRecord) << fmt;

        EXPECT_FALSE(s.next(op)) << fmt;
        EXPECT_TRUE(reader.ok()) << fmt << ": " << reader.error();
    }
}

TEST_F(ColumnStream, RefusesABodyItsFieldsDoNotFillExactly)
{
    // The block decoder only checks the columns' framing, so it accepts
    // these chunks; the stream parses each body against its recorded
    // length and fails at the bad op, after returning the ones before.
    struct Case
    {
        const char *what;
        std::vector<std::uint8_t> body;
        const char *error;
    };
    const Case cases[] = {
        {"empty body", {}, "malformed op stream: truncated retire"},
        {"trailing byte", {0x01, 0x00},
         "malformed op stream: op body longer than its fields"},
    };
    for (const Case &c : cases) {
        TempTrace tmp("body");
        {
            trace::TraceWriter w(tmp.path(), handBuiltConfig(1),
                                 trace::kFormatVersionV2);
            w.ops(0).beginOp(0, 1, 1, 0).push_back(0x02); // retire 2
            w.endOp(0, false);
            auto &b = w.ops(0).beginOp(0, 1, 1, 0);
            b.insert(b.end(), c.body.begin(), c.body.end());
            w.endOp(0, false);
            trace::TraceFooter footer;
            footer.result = handBuiltResult(1, 10);
            ASSERT_TRUE(w.finalize(footer)) << w.error();
        }
        std::vector<std::vector<std::uint8_t>> chunks;
        appendOpsChunks(tmp.path(), chunks);
        ASSERT_EQ(chunks.size(), 1u) << c.what;
        std::vector<std::uint8_t> v1;
        EXPECT_TRUE(trace::decodeOpsBlock(chunks[0].data(), chunks[0].size(),
                                          v1, kMaxChunkV1Bytes))
            << c.what;

        trace::TraceReader reader(tmp.path());
        ASSERT_TRUE(reader.ok()) << reader.error();

        auto s = reader.opStream(0);
        trace::TraceOp op;
        ASSERT_TRUE(s.next(op)) << c.what << ": " << reader.error();
        EXPECT_EQ(op.retired, 2u) << c.what;
        EXPECT_FALSE(s.next(op)) << c.what;
        EXPECT_NE(reader.error().find(c.error), std::string::npos)
            << c.what << ": " << reader.error();
    }
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

TEST_F(V2Corruption, ColumnStreamFailsWheneverTheBlockDecoderRefuses)
{
    // CRC-valid edits of every ops chunk: the length fields (v1Len,
    // opCount, each column length, body lengths), a trailing byte on
    // each column (v1Len kept consistent, so only the used-up check can
    // see it) and byte flips inside the column section, recompressed.
    // Whenever decodeOpsBlock refuses a chunk, the column stream must
    // fail too, with the reader's v2 taxonomy. A body length past the
    // body column is a column fault, named as such.
    const char *kUndecodable = "v2 ops chunk does not decode";
    const char *kMalformed = "malformed op stream";
    std::size_t refused = 0, edits = 0;
    Rng rng(28);
    for (const auto &[off, bytes] : chunkFrames()) {
        if (trace::get32le(good_.data() + off) != trace::kChunkOps)
            continue;
        const std::vector<std::uint8_t> payload(
            good_.begin() + off + 16, good_.begin() + off + 16 + bytes);
        const SplitPayload sp = splitPayload(payload);
        std::vector<std::uint8_t> section;
        ASSERT_TRUE(lzDecompress(sp.lz.data(), sp.lz.size(), section,
                                 lzCeiling(sp.v1Len)));
        ByteCursor sc(section.data(), section.size());
        std::uint64_t fields[7] = {}; // opCount, six column lengths
        std::vector<std::uint8_t> cols[6];
        ASSERT_TRUE(sc.getVarint(fields[0]));
        for (int k = 0; k < 6; ++k) {
            ASSERT_TRUE(sc.getVarint(fields[k + 1]));
            cols[k].assign(sc.pos, sc.pos + fields[k + 1]);
            sc.pos += fields[k + 1];
        }

        // Run one edited payload through decodeOpsBlock and the stream.
        auto check = [&](const std::vector<std::uint8_t> &edited,
                         const std::string &what,
                         const char *must_name = nullptr) {
            ++edits;
            std::vector<std::uint8_t> v1;
            const bool decodes = trace::decodeOpsBlock(
                edited.data(), edited.size(), v1, kMaxChunkV1Bytes);
            std::vector<std::uint8_t> file(good_.begin(),
                                           good_.begin() + off + 16);
            trace::put32le(file.data() + off + 8,
                           static_cast<std::uint32_t>(edited.size()));
            trace::put32le(file.data() + off + 12,
                           trace::crc32(edited.data(), edited.size()));
            file.insert(file.end(), edited.begin(), edited.end());
            file.insert(file.end(), good_.begin() + off + 16 + bytes,
                        good_.end());
            const std::string err = consumeAll(file);
            if (must_name) {
                EXPECT_FALSE(decodes) << what;
                EXPECT_NE(err.find(must_name), std::string::npos)
                    << what << ": " << err;
            }
            if (decodes)
                return;
            ++refused;
            EXPECT_TRUE(err.find(kUndecodable) != std::string::npos ||
                        err.find(kMalformed) != std::string::npos)
                << what << ": the stream read a refused chunk: '" << err
                << "'";
        };
        const std::string tag = "chunk at " + std::to_string(off);

        check(sectionPayload(sp.v1Len, fields, cols), tag + " unedited");
        for (std::int64_t d : {-1, 1}) {
            const std::string dt = " d=" + std::to_string(d);
            check(joinPayload(sp.v1Len + d, sp.lz), tag + " v1Len" + dt);
            for (int k = 0; k < 7; ++k) {
                std::uint64_t f[7];
                std::copy(std::begin(fields), std::end(fields), f);
                f[k] += d;
                check(sectionPayload(sp.v1Len, f, cols),
                      tag + " field " + std::to_string(k) + dt);
            }
        }

        // Body lengths of the first, a middle and the last op (where
        // they are single-byte varints). One past the last body runs
        // off the body column.
        const std::size_t last = cols[4].size() - 1;
        for (std::size_t at : {std::size_t(0), last / 2, last}) {
            if ((cols[4][at] & 0x80) || (at > 0 && (cols[4][at - 1] & 0x80)))
                continue;
            for (int d : {-1, 1}) {
                std::vector<std::uint8_t> c2[6];
                std::copy(std::begin(cols), std::end(cols), c2);
                c2[4][at] = static_cast<std::uint8_t>((c2[4][at] + d) & 0x7F);
                check(sectionPayload(sp.v1Len, fields, c2),
                      tag + " body len " + std::to_string(at) +
                          " d=" + std::to_string(d),
                      at == last && d == 1 ? kUndecodable : nullptr);
            }
        }

        // One byte more in a column, its length and v1Len following.
        for (int k = 0; k < 6; ++k) {
            std::uint64_t f[7];
            std::copy(std::begin(fields), std::end(fields), f);
            std::vector<std::uint8_t> c2[6];
            std::copy(std::begin(cols), std::end(cols), c2);
            c2[k].push_back(0);
            ++f[k + 1];
            const std::uint64_t v1_len =
                sp.v1Len + (k == trace::kColBodyLen ? 0 : 1);
            check(sectionPayload(v1_len, f, c2),
                  tag + " trailing byte in column " + std::to_string(k),
                  kUndecodable);
        }

        // Seeded flips inside the column bytes.
        for (int i = 0; i < 64; ++i) {
            const int k = static_cast<int>(rng.below(6));
            if (cols[k].empty())
                continue;
            std::vector<std::uint8_t> c2[6];
            std::copy(std::begin(cols), std::end(cols), c2);
            const std::size_t at = rng.below(c2[k].size());
            c2[k][at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
            check(sectionPayload(sp.v1Len, fields, c2),
                  tag + " flip column " + std::to_string(k) + " byte " +
                      std::to_string(at));
        }
    }
    EXPECT_GT(edits, 100u);
    EXPECT_GT(refused, edits / 2);
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
