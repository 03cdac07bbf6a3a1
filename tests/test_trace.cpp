/**
 * @file
 * Tests for the `paralog-trace-v1` record/replay subsystem: on-disk
 * format round trip (header, chunk CRCs, footer), recording
 * determinism, corruption rejection, and — the core property — that
 * replaying a recording reproduces the live run bit-identically
 * (results, stats, shadow fingerprint) for every lifeguard under SC
 * and TSO, independent of host-side knobs. Cross-lifeguard
 * re-monitoring is covered as the approximate mode it is.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "harness/tampered_journals.hpp"
#include "trace/migrate.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace paralog {
namespace {

using test::QuietTest;

/** Unique-enough temp path per test (removed at scope exit). */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_" + tag + "_" +
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
         const std::string &replay = "")
{
    RunSpec spec;
    spec.workload = w;
    spec.lifeguard = lg;
    spec.mode = MonitorMode::kParallel;
    spec.cores = cores;
    spec.opt = test::makeOptions(scale);
    spec.opt.memoryModel = mm;
    spec.recordPath = record;
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

// ------------------------------------------------- file format tests

class TraceFormatTest : public QuietTest
{
};

TEST_F(TraceFormatTest, HeaderFooterRoundTrip)
{
    TempTrace tmp("roundtrip");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 400, tmp.path());
    RunResult live = recordExperiment(spec);

    trace::TraceReader reader(tmp.path());
    ASSERT_TRUE(reader.ok()) << reader.error();
    const trace::TraceConfig &tc = reader.config();
    EXPECT_EQ(tc.workload, WorkloadKind::kLu);
    EXPECT_EQ(tc.lifeguard, LifeguardKind::kTaintCheck);
    EXPECT_EQ(tc.mode, MonitorMode::kParallel);
    EXPECT_EQ(tc.memoryModel, MemoryModel::kSC);
    EXPECT_EQ(tc.appThreads, 2u);
    EXPECT_EQ(tc.scale, 400u);
    EXPECT_EQ(tc.seed, 1u);
    EXPECT_NE(reader.configFingerprint(), 0u);

    EXPECT_EQ(resultMismatch(ResultTier::kExact, reader.footer().result,
                             live),
              "");
    EXPECT_TRUE(reader.footer().hasViolationFingerprint);

    // The journal carries every retire tick plus the appends.
    EXPECT_GE(reader.totalOps(), live.retiredTotal());
    EXPECT_GT(reader.totalRecords(), 0u);
    EXPECT_LT(reader.totalRecords(), reader.totalOps());
}

TEST_F(TraceFormatTest, RecordingIsDeterministic)
{
    TempTrace a("det_a"), b("det_b");
    RunSpec spec = makeSpec(WorkloadKind::kFmm, LifeguardKind::kMemCheck,
                            2, MemoryModel::kSC, 300, a.path());
    recordExperiment(spec);
    spec.recordPath = b.path();
    recordExperiment(spec);
    EXPECT_EQ(slurp(a.path()), slurp(b.path()))
        << "same spec must produce byte-identical recordings";
}

TEST_F(TraceFormatTest, RecordingIsCrashSafe)
{
    // The writer stages everything in `<path>.tmp` and only a
    // successful finalize() fsync+renames it into place: a recording
    // killed mid-write leaves either nothing at the requested name, or
    // a `.tmp` leftover the reader rejects — never a plausible-looking
    // truncated trace.
    TempTrace tmp("crashsafe");
    const std::string side = tmp.path() + ".tmp";

    // Simulate a hard kill: a child process records past several chunk
    // flushes and exits without finalize (no destructor cleanup).
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        trace::TraceConfig cfg;
        cfg.appThreads = 1;
        trace::TraceWriter w(tmp.path(), cfg);
        for (int i = 0; i < 4000; ++i) {
            auto &body = w.ops(0).beginOp(0, 0, 0, 0);
            body.insert(body.end(), 60, 0xAB); // a 64-byte op
            w.endOp(0, false);
        }
        ::_exit(0); // dies mid-recording
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    // The requested name never appeared; the leftover temp file is
    // rejected (no footer, header still marked unfinalized).
    EXPECT_TRUE(slurp(tmp.path()).empty());
    ASSERT_FALSE(slurp(side).empty());
    EXPECT_FALSE(trace::TraceReader(side).ok());
    std::remove(side.c_str());

    // An abandoned writer in-process (destructor, no finalize) cleans
    // up its temp file and publishes nothing.
    {
        trace::TraceConfig cfg;
        cfg.appThreads = 1;
        trace::TraceWriter w(tmp.path(), cfg);
        w.ops(0).beginOp(1, 2, 3, 0);
        w.endOp(0, true);
    }
    EXPECT_TRUE(slurp(tmp.path()).empty());
    EXPECT_TRUE(slurp(side).empty());

    // A completed recording publishes atomically: valid final file, no
    // temp residue.
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            1, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(spec);
    EXPECT_TRUE(trace::TraceReader(tmp.path()).ok());
    EXPECT_TRUE(slurp(side).empty());
}

TEST_F(TraceFormatTest, RejectsBadMagicTruncationAndCorruption)
{
    TempTrace tmp("corrupt");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                            1, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(spec);
    std::vector<std::uint8_t> good = slurp(tmp.path());
    ASSERT_GT(good.size(), 200u);

    // Bad magic.
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    spit(tmp.path(), bad);
    EXPECT_FALSE(trace::TraceReader(tmp.path()).ok());

    // Truncation (drops the footer chunk).
    bad = good;
    bad.resize(bad.size() / 2);
    spit(tmp.path(), bad);
    EXPECT_FALSE(trace::TraceReader(tmp.path()).ok());

    // Header corruption: the config fingerprint catches it.
    bad = good;
    bad[30] ^= 0x01; // filter bits
    spit(tmp.path(), bad);
    EXPECT_FALSE(trace::TraceReader(tmp.path()).ok());

    // Payload corruption inside the first chunk: the CRC catches it.
    bad = good;
    bad[trace::kHeaderBytes + 16 + 3] ^= 0x40;
    spit(tmp.path(), bad);
    trace::TraceReader reader(tmp.path());
    if (reader.ok()) {
        trace::TraceOp op;
        auto stream = reader.opStream(0);
        while (stream.next(op)) {
        }
        EXPECT_FALSE(reader.ok()) << "corrupt chunk not detected";
    }
    EXPECT_NE(reader.error().find("trace"), std::string::npos);
}

TEST_F(TraceFormatTest, TruncationAtEveryStructuralBoundary)
{
    // A recording cut short at *any* structural boundary — mid-header,
    // at a chunk boundary, mid-chunk-header, at the payload start, mid
    // payload, one byte short of a payload end — must come back as a
    // clean reader error at construction time (the chunk index now
    // checks payload extents against the file size), never as stale
    // buffer bytes reaching a decoder. The footer is written last, so
    // every proper prefix is missing it at minimum.
    TempTrace tmp("bound");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(spec);
    std::vector<std::uint8_t> good = slurp(tmp.path());
    ASSERT_GT(good.size(), trace::kHeaderBytes + 16u);

    auto get32at = [&good](std::size_t off) {
        return static_cast<std::uint32_t>(good[off]) |
               static_cast<std::uint32_t>(good[off + 1]) << 8 |
               static_cast<std::uint32_t>(good[off + 2]) << 16 |
               static_cast<std::uint32_t>(good[off + 3]) << 24;
    };

    // Walk the chunk list to find every boundary.
    std::vector<std::size_t> cuts{0, trace::kHeaderBytes / 2,
                                  trace::kHeaderBytes - 1};
    std::size_t off = trace::kHeaderBytes;
    std::size_t chunks = 0;
    while (off + 16 <= good.size()) {
        std::size_t payload = get32at(off + 8);
        cuts.push_back(off);           // at the chunk boundary
        cuts.push_back(off + 8);       // mid chunk header
        cuts.push_back(off + 16);      // payload start
        if (payload > 1) {
            cuts.push_back(off + 16 + payload / 2); // mid payload
            cuts.push_back(off + 16 + payload - 1); // one byte short
        }
        off += 16 + payload;
        ++chunks;
    }
    ASSERT_EQ(off, good.size()) << "chunk walk out of sync";
    ASSERT_GE(chunks, 2u) << "need data chunks and a footer chunk";

    for (std::size_t cut : cuts) {
        if (cut >= good.size())
            continue;
        std::vector<std::uint8_t> bad = good;
        bad.resize(cut);
        spit(tmp.path(), bad);
        trace::TraceReader reader(tmp.path());
        EXPECT_FALSE(reader.ok()) << "cut at byte " << cut << " of "
                                  << good.size() << " was accepted";
        EXPECT_FALSE(reader.error().empty()) << "cut at byte " << cut;
    }
}

TEST_F(TraceFormatTest, MidChunkEofIsDiagnosedNotDecoded)
{
    // Rewrite a data chunk's header to claim a payload running past
    // EOF: the reader must refuse with a diagnosis naming the problem,
    // and the op stream must yield nothing (no decode of stale bytes).
    TempTrace tmp("midchunk");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                            1, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(spec);
    std::vector<std::uint8_t> good = slurp(tmp.path());
    ASSERT_GT(good.size(), trace::kHeaderBytes + 16u);

    std::vector<std::uint8_t> bad = good;
    std::size_t len_off = trace::kHeaderBytes + 8;
    bad[len_off] = 0xFF; // inflate the first chunk's payload length
    bad[len_off + 1] = 0xFF;
    bad[len_off + 2] = 0xFF;
    spit(tmp.path(), bad);

    trace::TraceReader reader(tmp.path());
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("past end of file"), std::string::npos)
        << reader.error();
    trace::TraceOp op;
    auto stream = reader.opStream(0);
    EXPECT_FALSE(stream.next(op))
        << "a failed reader must not hand records to the decoder";
}

TEST_F(TraceFormatTest, RejectsParallelFooterWithoutLifeguardStats)
{
    // The header's config fingerprint does not cover the footer, so a
    // footer whose per-core lifeguard list disagrees with the header's
    // thread count — the empty list being the degenerate case — can sit
    // behind an intact header. The reader must reject it at open, not
    // let a whole replay run before the footer self-check fails.
    TempTrace src("nolg_src"), bad("nolg");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 300, src.path());
    recordExperiment(spec);

    // The same journal bytes behind a footer with the lifeguard stats
    // stripped.
    test::copyWithFooter(src.path(), bad.path(), [](trace::TraceFooter &f) {
        ASSERT_EQ(f.result.lifeguard.size(), 2u);
        f.result.lifeguard.clear();
    });

    trace::TraceReader check(bad.path());
    EXPECT_FALSE(check.ok())
        << "an empty lifeguard list in a 2-core parallel recording "
        << "must not be accepted";
    EXPECT_NE(check.error().find("lifeguard stats for 0 cores"),
              std::string::npos)
        << check.error();
}

TEST_F(TraceFormatTest, ConfigFingerprintStartsFromTheFormatsFnvBasis)
{
    // The config fingerprint (header bytes 16..23) is FNV-1a over bytes
    // 24..63 started from the format's own basis, the textbook FNV-1a
    // 64-bit offset basis with its last digit dropped. A committed
    // recording pins it: another writer must use kFnvBasis.
    const std::string src = test::corpusTrace("taintcheck_tso_v1");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    const std::vector<std::uint8_t> file = slurp(src);
    ASSERT_GE(file.size(), trace::kHeaderBytes);
    auto fnv = [&file](std::uint64_t basis) {
        std::uint64_t h = basis;
        for (std::size_t i = 24; i < 64; ++i) {
            h ^= file[i];
            h *= kFnvPrime;
        }
        return h;
    };
    const std::uint64_t stored = trace::get64le(file.data() + 16);
    EXPECT_EQ(fnv(kFnvBasis), stored);
    EXPECT_EQ(trace::fnv1a(file.data() + 24, 40), stored);
    EXPECT_NE(fnv(kFnv1aOffsetBasis), stored);
    EXPECT_EQ(kFnvBasis, kFnv1aOffsetBasis / 10);
}

// -------------------------------------------- replay determinism ----

struct ReplayCell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t cores;
};

class ReplayBitIdentical : public test::QuietTestWithParam<ReplayCell>
{
};

TEST_P(ReplayBitIdentical, ReplayReproducesTheLiveRun)
{
    const ReplayCell &cell = GetParam();
    TempTrace tmp("replay");
    RunSpec spec =
        makeSpec(WorkloadKind::kLu, cell.lifeguard, cell.cores,
                 cell.memoryModel, 400, tmp.path());
    RunResult live = recordExperiment(spec);
    EXPECT_NE(live.shadowFingerprint, 0u);

    // replayExperiment self-checks against the footer (panics on any
    // divergence); compare the assembled RunResult here as well.
    RunSpec replay = makeSpec(WorkloadKind::kLu, cell.lifeguard,
                              cell.cores, cell.memoryModel, 400, "",
                              tmp.path());
    RunResult replayed = replayExperiment(replay);
    EXPECT_EQ(resultMismatch(ResultTier::kExact, replayed, live), "");
}

/** The full acceptance matrix: lifeguard × {SC,TSO} × {1,2,4} cores. */
std::vector<ReplayCell>
allReplayCells()
{
    std::vector<ReplayCell> cells;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t cores : {1u, 2u, 4u})
                cells.push_back(ReplayCell{lg, mm, cores});
        }
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModelsCores, ReplayBitIdentical,
    ::testing::ValuesIn(allReplayCells()),
    [](const ::testing::TestParamInfo<ReplayCell> &info) {
        return std::string(toString(info.param.lifeguard)) + "_" +
               toString(info.param.memoryModel) + "_" +
               std::to_string(info.param.cores) + "c";
    });

class ReplayModes : public QuietTest
{
};

TEST_F(ReplayModes, OceanReplaysBitIdentical)
{
    // The bit-identity matrix records lu; ocean's stencil sweeps are a
    // second, differently shaped journal.
    TempTrace tmp("ocean");
    RunSpec spec = makeSpec(WorkloadKind::kOcean,
                            LifeguardKind::kTaintCheck, 2,
                            MemoryModel::kSC, 400, tmp.path());
    RunResult live = recordExperiment(spec);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    ReplayPlatform rp(std::move(cfg));
    EXPECT_EQ(resultMismatch(ResultTier::kExact, rp.run(), live), "");
}

TEST_F(ReplayModes, ReplayEndsAtTheRecordedApplicationExit)
{
    // The application's last step (its exit) journals no op. When that
    // step comes after every lifeguard core has finished, the journal
    // runs dry before the recorded end of the run, and replay must
    // still report the recorded total. Record, then serially replay,
    // every workload x lifeguard x {SC, TSO} x {2, 4} cores at the
    // CLI's default scale: ocean and blackscholes end that way.
    std::vector<RunSpec> records, replays;
    std::vector<std::unique_ptr<TempTrace>> traces;
    for (WorkloadKind w :
         {WorkloadKind::kBarnes, WorkloadKind::kLu, WorkloadKind::kOcean,
          WorkloadKind::kBlackscholes, WorkloadKind::kFluidanimate,
          WorkloadKind::kSwaptions, WorkloadKind::kFmm,
          WorkloadKind::kRadiosity}) {
        for (LifeguardKind lg :
             {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
              LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
            for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
                for (std::uint32_t cores : {2u, 4u}) {
                    traces.push_back(std::make_unique<TempTrace>(
                        "exit_" + std::to_string(records.size())));
                    const std::string &path = traces.back()->path();
                    records.push_back(
                        makeSpec(w, lg, cores, mm, 20000, path));
                    replays.push_back(
                        makeSpec(w, lg, cores, mm, 20000, "", path));
                }
            }
        }
    }
    std::vector<CellResult> recorded = runMatrix(records, 4);
    std::vector<CellResult> replayed = runMatrix(replays, 4);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunSpec &s = records[i];
        SCOPED_TRACE(std::string(toString(s.workload)) + " " +
                     toString(s.lifeguard) + " " +
                     toString(s.opt.memoryModel) + " " +
                     std::to_string(s.cores) + "c");
        ASSERT_FALSE(recorded[i].failed) << recorded[i].error;
        // The serial replay self-checks every column against the
        // footer; a cell that fails reports the first divergence.
        EXPECT_FALSE(replayed[i].failed) << replayed[i].error;
    }
}

TEST_F(ReplayModes, CrossLifeguardReMonitoring)
{
    // Record once under TaintCheck (the widest event filter), replay
    // under AddrCheck: the ReplayCore re-filters the stream for the
    // new monitor, so the heap-only AddrCheck sees the records its own
    // capture would have kept and reaches its native conclusions.
    TempTrace tmp("cross"), tmp_native("cross_native");
    RunSpec spec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 400, tmp.path());
    recordExperiment(spec);

    RunSpec native = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                              2, MemoryModel::kSC, 400,
                              tmp_native.path());
    RunResult native_live = recordExperiment(native);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    cfg.lifeguardOverride = true;
    cfg.lifeguard = LifeguardKind::kAddrCheck;
    ReplayPlatform rp(std::move(cfg));
    EXPECT_FALSE(rp.replaysRecordedLifeguard());
    RunResult remon = rp.run();

    // Analysis conclusions (violations, shadow state) match the native
    // run; timing is approximate by design and not compared.
    EXPECT_EQ(remon.violationCount, native_live.violationCount);
    EXPECT_EQ(remon.shadowFingerprint, native_live.shadowFingerprint);
}

TEST_F(ReplayModes, CrossLifeguardReMonitoringUnderTso)
{
    // The TSO journal carries drain-time arc attachment and version
    // annotations; a cross-lifeguard replay must keep the arcs of
    // records its re-filter drops (carried to the next surviving
    // record, as a live capture of the new lifeguard would) so
    // delivery ordering stays conservative. In fmm's journal some arcs
    // are attached at drain time to records the re-filter already
    // dropped, so ReplayCore's drop log carries them. AddrCheck's
    // conclusions from the re-filtered TaintCheck recording must match
    // its native run. The re-filtered replay is itself deterministic
    // and does not depend on the container: replaying the journal
    // twice, and replaying a v2 recording of the same run, agree on
    // every column.
    for (WorkloadKind w : {WorkloadKind::kLu, WorkloadKind::kFmm}) {
        SCOPED_TRACE(toString(w));
        TempTrace tmp("cross_tso"), tmp_v2("cross_tso_v2"),
            tmp_native("cross_tso_native");
        RunSpec spec = makeSpec(w, LifeguardKind::kTaintCheck, 4,
                                MemoryModel::kTSO, 400, tmp.path());
        recordExperiment(spec);
        spec.recordPath = tmp_v2.path();
        spec.recordFormat = trace::kFormatVersionV2;
        recordExperiment(spec);

        RunSpec native = makeSpec(w, LifeguardKind::kAddrCheck, 4,
                                  MemoryModel::kTSO, 400,
                                  tmp_native.path());
        RunResult native_live = recordExperiment(native);

        auto remonitor = [](const std::string &path) {
            ReplayConfig cfg;
            cfg.path = path;
            cfg.lifeguardOverride = true;
            cfg.lifeguard = LifeguardKind::kAddrCheck;
            ReplayPlatform rp(std::move(cfg));
            EXPECT_FALSE(rp.replaysRecordedLifeguard());
            return rp.run();
        };
        RunResult remon = remonitor(tmp.path());
        EXPECT_EQ(remon.violationCount, native_live.violationCount);
        EXPECT_EQ(remon.shadowFingerprint, native_live.shadowFingerprint);

        EXPECT_EQ(resultMismatch(ResultTier::kExact,
                                 remonitor(tmp.path()), remon),
                  "");
        EXPECT_EQ(resultMismatch(ResultTier::kExact,
                                 remonitor(tmp_v2.path()), remon),
                  "");
    }
}

TEST_F(ReplayModes, ReplayThroughRunMatrixIsJobCountInvariant)
{
    // One recording replayed as four matrix cells (one per lifeguard)
    // must produce identical results at any job count — the matrix
    // determinism contract extends to replay cells.
    TempTrace tmp("matrix");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                           2, MemoryModel::kSC, 400, tmp.path());
    recordExperiment(rec);

    std::vector<RunSpec> specs;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet})
        specs.push_back(makeSpec(WorkloadKind::kLu, lg, 2,
                                 MemoryModel::kSC, 400, "", tmp.path()));

    std::vector<CellResult> seq = runMatrix(specs, 1);
    std::vector<CellResult> par = runMatrix(specs, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        ASSERT_FALSE(seq[i].failed) << seq[i].error;
        ASSERT_FALSE(par[i].failed) << par[i].error;
        EXPECT_EQ(resultMismatch(ResultTier::kExact, par[i].result,
                                 seq[i].result),
                  "");
    }
}

TEST_F(ReplayModes, RecordingLeavesResultsUntouched)
{
    // A recorded run and a plain run of the same spec report identical
    // simulated results: recording only taps the streams.
    TempTrace tmp("untouched");
    RunSpec spec = makeSpec(WorkloadKind::kSwaptions,
                            LifeguardKind::kLockSet, 2, MemoryModel::kSC,
                            400, tmp.path());
    RunResult recorded = recordExperiment(spec);

    RunSpec plain = spec;
    plain.recordPath.clear();
    RunResult live = runSpecExperiment(plain);
    live.shadowFingerprint = recorded.shadowFingerprint; // not computed
    EXPECT_EQ(resultMismatch(ResultTier::kExact, live, recorded), "");
}

// ------------------------------------------------ replay watchdog

/** Records normally, except that the journal's first drain-time arc
 *  attachment gains one arc to a record the other thread never
 *  reaches. The live run, the footer and every CRC stay valid; the
 *  replayed lifeguard waits on that arc forever. */
class StallingRecorder : public trace::TraceRecorder
{
  public:
    using TraceRecorder::TraceRecorder;

    void
    onAttachArcs(ThreadId tid, RecordId rid,
                 const std::vector<DepArc> &kept) override
    {
        std::vector<DepArc> arcs = kept;
        if (!injected_) {
            injected_ = true;
            arcs.push_back(DepArc{1 - tid, 1'000'000'000});
        }
        TraceRecorder::onAttachArcs(tid, rid, arcs);
    }

  private:
    bool injected_ = false;
};

TEST_F(ReplayModes, StalledSerialReplayTripsTheProgressWatchdog)
{
    // The stalled lifeguard is still stepped every retry interval, so
    // lifeguard steps must not count as progress once every journal is
    // exhausted: the progress watchdog fires long before maxCycles.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempTrace tmp("stalling");
    test::recordLuJournal<StallingRecorder>(tmp.path(), MemoryModel::kTSO);
    ASSERT_TRUE(trace::TraceReader(tmp.path()).ok());

    ReplayConfig cfg;
    cfg.path = tmp.path();
    cfg.stallWatchdogIters = 20'000;
    cfg.maxCycles = 100'000'000;
    EXPECT_DEATH(
        {
            ReplayPlatform rp(cfg);
            rp.run();
        },
        "replay watchdog state dump.*replay progress watchdog");
}

TEST_F(ReplayModes, FutureStampedOpFailsReplayFast)
{
    // Replay holds an op until its recorded cycle comes round. One op
    // stamped far past the run's total cycles would keep the scheduler
    // idling toward maxCycles (2^36); the reader must refuse it as
    // soon as it decodes it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempTrace tmp("future");
    test::recordLuJournal<test::FutureStampRecorder>(tmp.path(),
                                                     MemoryModel::kSC);

    trace::TraceReader reader(tmp.path());
    ASSERT_TRUE(reader.ok()) << reader.error();
    trace::TraceOp op;
    for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
        auto stream = reader.opStream(t);
        while (stream.next(op)) {
        }
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find(
                  "malformed op stream: op cycle beyond the recorded run"),
              std::string::npos)
        << reader.error();

    ReplayConfig cfg;
    cfg.path = tmp.path();
    EXPECT_DEATH(
        {
            ReplayPlatform rp(cfg);
            rp.run();
        },
        "replay: .*malformed op stream: op cycle beyond the recorded run");
}

TEST_F(ReplayModes, DecreasingRecordIdFailsReplay)
{
    // The encoder writes each append's rid as an unsigned delta from
    // the previous one, so a journal whose rids go backwards carries a
    // delta that wraps past 2^64. The log buffer's rid lookups and the
    // cross-lifeguard drop log assume sorted rids: the reader must
    // refuse that delta in either container, and replay with it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (std::uint32_t format :
         {trace::kFormatVersion, trace::kFormatVersionV2}) {
        SCOPED_TRACE("format v" + std::to_string(format));
        TempTrace tmp("rid_back_v" + std::to_string(format));
        test::recordLuJournal<test::DecreasingRidRecorder>(
            tmp.path(), MemoryModel::kSC, format);

        trace::TraceReader reader(tmp.path());
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.formatVersion(), format);
        trace::TraceOp op;
        auto stream = reader.opStream(0);
        while (stream.next(op)) {
        }
        EXPECT_FALSE(reader.ok());
        EXPECT_NE(reader.error().find(
                      "malformed op stream: record decode failed"),
                  std::string::npos)
            << reader.error();

        ReplayConfig cfg;
        cfg.path = tmp.path();
        EXPECT_DEATH(
            {
                ReplayPlatform rp(cfg);
                rp.run();
            },
            "replay: .*malformed op stream: record decode failed");
    }
}

TEST_F(ReplayModes, ReservedHeaderWordIsIgnored)
{
    // Header offset 36 is reserved; older recordings may hold a
    // nonzero value there (a host-tuning word that never affected
    // results). Replay must ignore it, not reject the file: the
    // rewritten copy replays to the untouched recording's results.
    const std::string src = test::corpusTrace("addrcheck_sc_v2");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    TempTrace tmp("reserved");
    test::copyWithHeader(src, tmp.path(),
                         [](std::uint8_t *h) { trace::put32le(h + 36, 3); });

    trace::TraceReader tampered(tmp.path());
    ASSERT_TRUE(tampered.ok()) << tampered.error();
    trace::TraceReader original(src);
    ASSERT_TRUE(original.ok()) << original.error();
    EXPECT_NE(tampered.configFingerprint(), original.configFingerprint());

    ReplayConfig want_cfg;
    want_cfg.path = src;
    RunResult want = ReplayPlatform(std::move(want_cfg)).run();
    ReplayConfig got_cfg;
    got_cfg.path = tmp.path();
    RunResult got = ReplayPlatform(std::move(got_cfg)).run();
    EXPECT_EQ(resultMismatch(ResultTier::kExact, got,
                             original.footer().result),
              "");
    EXPECT_EQ(resultMismatch(ResultTier::kExact, got, want), "");
}

TEST_F(ReplayModes, RetiredLiveParallelBitIsRefused)
{
    // Config flag bit 4 marked journals of the retired live
    // host-parallel engine: they hold no lifeguard-step stamps, so no
    // engine can replay them. The reader refuses such a header by name
    // (for replay, --migrate and paralog-dump alike), even though its
    // fingerprint is consistent.
    const std::string src = test::corpusTrace("taintcheck_tso_v2");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    TempTrace tmp("liveparallel");
    test::copyWithHeader(src, tmp.path(), [](std::uint8_t *h) {
        h[29] |= trace::kCfgLiveParallel;
    });
    const std::string why = "retired live host-parallel engine";

    trace::TraceReader reader(tmp.path());
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find(why), std::string::npos)
        << reader.error();

    TempTrace out("liveparallel_out");
    trace::MigrateResult m =
        trace::migrateTrace(tmp.path(), out.path(), trace::kFormatVersion);
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find(why), std::string::npos) << m.error;

    bool prev = setPanicThrows(true);
    std::string message;
    try {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        ReplayPlatform rp(std::move(cfg));
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    EXPECT_NE(message.find(why), std::string::npos) << message;
}

} // namespace
} // namespace paralog
