/**
 * @file
 * The cross-version trace-corpus regression gate. `tests/corpus/` holds
 * committed mini recordings — every lifeguard x {SC, TSO}, in both the
 * v1 and v2 containers — made by `tests/corpus/generate.sh`. This suite
 * replays each one against the footer it was recorded with: any change
 * to the trace formats, the record codec, delivery ordering, or the
 * lifeguards that would break replay of *existing* recordings fails
 * here, before it ships. It also pins `paralog-dump`'s output against
 * committed goldens (PARALOG_DUMP points at the built inspector).
 *
 * CMake sets PARALOG_CORPUS to the committed corpus directory. A
 * missing corpus file is a hard failure, not a skip — the gate only
 * works if the corpus stays in the tree.
 *
 * Re-baselining (after a deliberate, documented format change) is
 * `tests/corpus/generate.sh <build-dir>`; see tests/corpus/README.md
 * for the policy.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "harness/tampered_journals.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"

namespace paralog {
namespace {

struct CorpusEntry
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t format; // 1 or 2

    std::string
    stem() const
    {
        std::string lg;
        switch (lifeguard) {
          case LifeguardKind::kAddrCheck:  lg = "addrcheck"; break;
          case LifeguardKind::kTaintCheck: lg = "taintcheck"; break;
          case LifeguardKind::kMemCheck:   lg = "memcheck"; break;
          case LifeguardKind::kLockSet:    lg = "lockset"; break;
        }
        return lg +
               (memoryModel == MemoryModel::kSC ? "_sc" : "_tso") +
               "_v" + std::to_string(format);
    }
};

std::vector<CorpusEntry>
allEntries()
{
    std::vector<CorpusEntry> entries;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t fmt : {1u, 2u})
                entries.push_back(CorpusEntry{lg, mm, fmt});
        }
    }
    return entries;
}

std::string
corpusDir()
{
    const char *dir = std::getenv("PARALOG_CORPUS");
    return dir ? dir : "";
}

std::string
slurpText(const std::string &path)
{
    std::string text;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** Scoped panic-throw so a replay divergence fails the test instead of
 *  aborting the whole suite. */
class PanicThrowScope
{
  public:
    PanicThrowScope() : prev_(setPanicThrows(true)) {}
    ~PanicThrowScope() { setPanicThrows(prev_); }

  private:
    bool prev_;
};

class CorpusGate : public test::QuietTest
{
  protected:
    void
    SetUp() override
    {
        if (corpusDir().empty())
            GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    }

    std::string
    tracePath(const CorpusEntry &e) const
    {
        return corpusDir() + "/" + e.stem() + ".trace";
    }

    /** Replay @p path under its recorded lifeguard. The serial engine
     *  self-checks every stat against the footer (panics — here,
     *  throws — on divergence). */
    RunResult
    replay(const std::string &path, std::uint32_t lg_threads = 0)
    {
        ReplayConfig cfg;
        cfg.path = path;
        cfg.lgThreads = lg_threads;
        ReplayPlatform rp(std::move(cfg));
        return rp.run();
    }
};

TEST_F(CorpusGate, CorpusIsCompleteAndWellFormed)
{
    for (const CorpusEntry &e : allEntries()) {
        std::string path = tracePath(e);
        struct stat st;
        ASSERT_EQ(::stat(path.c_str(), &st), 0)
            << path << " is missing — the corpus must stay committed "
            << "(tests/corpus/generate.sh regenerates it)";
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << path << ": " << reader.error();
        EXPECT_EQ(reader.formatVersion(), e.format) << path;
        EXPECT_EQ(reader.config().lifeguard, e.lifeguard) << path;
        EXPECT_EQ(reader.config().memoryModel, e.memoryModel) << path;
        EXPECT_EQ(reader.config().mode, MonitorMode::kParallel) << path;
        EXPECT_TRUE(reader.footer().hasViolationFingerprint) << path;
    }
}

TEST_F(CorpusGate, SerialReplayMatchesEveryRecordedFooter)
{
    PanicThrowScope throws;
    for (const CorpusEntry &e : allEntries()) {
        std::string path = tracePath(e);
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << path << ": " << reader.error();

        RunResult result;
        try {
            result = replay(path);
        } catch (const std::exception &ex) {
            FAIL() << path << " diverged from its recorded footer: "
                   << ex.what();
        }
        EXPECT_EQ(resultMismatch(ResultTier::kExact, result,
                                 reader.footer().result),
                  "")
            << path;
    }
}

TEST_F(CorpusGate, V1AndV2PairsReplayIdentically)
{
    PanicThrowScope throws;
    for (const CorpusEntry &e : allEntries()) {
        if (e.format != 1)
            continue;
        CorpusEntry twin = e;
        twin.format = 2;
        RunResult from1, from2;
        try {
            from1 = replay(tracePath(e));
            from2 = replay(tracePath(twin));
        } catch (const std::exception &ex) {
            FAIL() << e.stem() << "/" << twin.stem() << ": "
                   << ex.what();
        }
        EXPECT_EQ(resultMismatch(ResultTier::kExact, from1, from2), "")
            << e.stem();
    }
}

TEST_F(CorpusGate, ReRecordingReproducesEveryCorpusFile)
{
    // The corpus was recorded with single-pop delivery (one record per
    // lifeguard step). Recording now delivers in batches and stamps
    // each journal op with the single-pop steps a batch stands for, so
    // re-recording each cell from its header must give the committed
    // file byte for byte.
    PanicThrowScope throws;
    for (const CorpusEntry &e : allEntries()) {
        const std::string path = tracePath(e);
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << path << ": " << reader.error();
        const trace::TraceConfig &tc = reader.config();
        ASSERT_EQ(tc.accelIT, tc.accelIF) << path;
        ASSERT_EQ(tc.accelIT, tc.accelMTLB) << path;

        RunSpec spec;
        spec.workload = tc.workload;
        spec.lifeguard = tc.lifeguard;
        spec.mode = tc.mode;
        spec.cores = tc.appThreads;
        spec.opt.scale = tc.scale;
        spec.opt.seed = tc.seed;
        spec.opt.memoryModel = tc.memoryModel;
        spec.opt.depTracking = tc.depTracking;
        spec.opt.conflictAlerts = tc.conflictAlerts;
        spec.opt.accelerators = tc.accelIT;
        spec.opt.logBufferBytes = tc.logBufferBytes;
        spec.recordFormat = e.format;
        spec.recordPath = ::testing::TempDir() + "paralog_rerecord_" +
                          e.stem() + "_" + std::to_string(::getpid()) +
                          ".trace";
        try {
            recordExperiment(spec);
        } catch (const std::exception &ex) {
            FAIL() << e.stem() << ": " << ex.what();
        }
        const bool same = slurpText(spec.recordPath) == slurpText(path);
        std::remove(spec.recordPath.c_str());
        EXPECT_TRUE(same) << e.stem()
                          << ": re-recording differs from the corpus file";
    }
}

TEST_F(CorpusGate, ConcurrentReplayMatchesFooters)
{
    // The host-parallel engine (lg-threads=2) over committed v2
    // recordings — the engine the tsan CI label exists for.
    PanicThrowScope throws;
    for (const CorpusEntry &e : allEntries()) {
        if (e.format != 2)
            continue;
        std::string path = tracePath(e);
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << path << ": " << reader.error();

        RunResult result;
        try {
            result = replay(path, /*lg_threads=*/2);
        } catch (const std::exception &ex) {
            FAIL() << path << ": " << ex.what();
        }
        EXPECT_EQ(resultMismatch(ResultTier::kResults, result,
                                 reader.footer().result),
                  "")
            << path;
    }
}

TEST_F(CorpusGate, SerialReplayWatchdogPrintsTheStateDump)
{
    // The maxCycles watchdog of the serial replay engine dumps the
    // per-stream wait state before it panics, as the live engine does.
    CorpusEntry e{LifeguardKind::kTaintCheck, MemoryModel::kTSO, 2};
    ReplayConfig cfg;
    cfg.path = tracePath(e);
    cfg.maxCycles = 10;
    std::string message;
    ::testing::internal::CaptureStderr();
    {
        PanicThrowScope throws;
        try {
            ReplayPlatform rp(std::move(cfg));
            rp.run();
        } catch (const SimPanicError &ex) {
            message = ex.what();
        }
    }
    std::string dump = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(message.find("replay simulation watchdog"), std::string::npos)
        << message;
    EXPECT_NE(dump.find("replay watchdog state dump"), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("  stream: "), std::string::npos) << dump;
}

TEST_F(CorpusGate, CorruptJournalChunkFailsSerialReplayWithTheCrcError)
{
    // Chunk CRCs are checked lazily, as replay reaches each chunk. A
    // journal that ends because its next chunk failed the check is a
    // corrupt trace, not an exhausted stream: the serial engine must
    // say so instead of stalling into a "protocol deadlock".
    for (std::uint32_t fmt : {1u, 2u}) {
        CorpusEntry e{LifeguardKind::kTaintCheck, MemoryModel::kSC, fmt};
        std::string bytes = slurpText(tracePath(e));
        // Flip one payload byte of thread 0's second ops chunk.
        std::size_t off = trace::kHeaderBytes;
        int ops_seen = 0;
        while (off + 16 <= bytes.size()) {
            const auto *frame =
                reinterpret_cast<const std::uint8_t *>(bytes.data() + off);
            std::uint32_t payload = trace::get32le(frame + 8);
            if (trace::get32le(frame) == trace::kChunkOps &&
                trace::get32le(frame + 4) == 0 && ++ops_seen == 2) {
                bytes[off + 16 + payload / 2] ^= 0x20;
                break;
            }
            off += 16 + payload;
        }
        ASSERT_EQ(ops_seen, 2) << e.stem() << " has one ops chunk";
        std::string bad = ::testing::TempDir() + "corrupt_" + e.stem() +
                          ".trace";
        std::FILE *f = std::fopen(bad.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);

        for (LifeguardKind lg :
             {LifeguardKind::kTaintCheck, LifeguardKind::kAddrCheck}) {
            ReplayConfig cfg;
            cfg.path = bad;
            cfg.lifeguardOverride = true;
            cfg.lifeguard = lg; // self, then cross-lifeguard
            std::string message;
            PanicThrowScope throws;
            try {
                ReplayPlatform rp(std::move(cfg));
                rp.run();
            } catch (const SimPanicError &ex) {
                message = ex.what();
            }
            EXPECT_NE(message.find("CRC mismatch"), std::string::npos)
                << e.stem() << " under " << toString(lg) << ": "
                << message;
        }
        std::remove(bad.c_str());
    }
}

TEST_F(CorpusGate, EditedFooterFailsEveryEngineWhoseTierPinsTheColumn)
{
    // The same journal behind a footer with one column edited. Serial
    // replay holds the footer to ResultTier::kExact, concurrent replay
    // to kResults: each edit must fail exactly the engines whose tier
    // compares the column, naming it.
    struct Edit
    {
        const char *column;
        bool concurrentRefuses;
        void (*apply)(trace::TraceFooter &);
    };
    const std::vector<Edit> edits = {
        {"totalCycles", false,
         [](trace::TraceFooter &f) { ++f.result.totalCycles; }},
        {"lifeguard[0].usefulCycles", false,
         [](trace::TraceFooter &f) { ++f.result.lifeguard[0].usefulCycles; }},
        {"lifeguard[0].recordsProcessed", true,
         [](trace::TraceFooter &f) {
             ++f.result.lifeguard[0].recordsProcessed;
         }},
        {"shadowFingerprint", true,
         [](trace::TraceFooter &f) { f.result.shadowFingerprint ^= 1; }},
        {"versionsConsumed", true,
         [](trace::TraceFooter &f) { ++f.result.versionsConsumed; }},
        // A footer from before the violation fingerprint existed pins
        // nothing in that column, whatever the stale value says.
        {nullptr, false,
         [](trace::TraceFooter &f) {
             f.hasViolationFingerprint = false;
             f.result.violationFingerprint ^= 1;
         }},
    };
    const std::string src =
        tracePath({LifeguardKind::kTaintCheck, MemoryModel::kTSO, 2});
    const std::string bad = ::testing::TempDir() + "edited_footer.trace";
    PanicThrowScope throws;
    for (const Edit &e : edits) {
        test::copyWithFooter(src, bad, e.apply);
        const std::string label = e.column ? e.column : "no fingerprint";
        for (std::uint32_t lg_threads : {0u, 2u}) {
            std::string message;
            try {
                replay(bad, lg_threads);
            } catch (const SimPanicError &ex) {
                message = ex.what();
            }
            const bool refuses =
                e.column && (lg_threads == 0 || e.concurrentRefuses);
            if (refuses)
                EXPECT_NE(message.find(
                              std::string("replay diverged from the "
                                          "recording: ") +
                              e.column + " = "),
                          std::string::npos)
                    << label << ", lg_threads=" << lg_threads << ": "
                    << message;
            else
                EXPECT_EQ(message, "")
                    << label << ", lg_threads=" << lg_threads;
        }
    }
    std::remove(bad.c_str());
}

// --------------------------------------------- paralog-dump goldens

class DumpGoldens : public test::QuietTest
{
  protected:
    void
    SetUp() override
    {
        if (corpusDir().empty() || !std::getenv("PARALOG_DUMP"))
            GTEST_SKIP()
                << "PARALOG_CORPUS/PARALOG_DUMP not set (run under "
                   "CTest)";
    }

    /** Run the built inspector; returns its exit code, fills @p out. */
    int
    runDump(const std::string &flags_and_path, std::string &out)
    {
        std::string cmd = "'" + std::string(std::getenv("PARALOG_DUMP")) +
                          "' " + flags_and_path + " 2>&1";
        FILE *pipe = popen(cmd.c_str(), "r");
        if (!pipe) {
            ADD_FAILURE() << "popen failed for: " << cmd;
            return -1;
        }
        out.clear();
        char buf[4096];
        std::size_t n;
        while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
            out.append(buf, n);
        int status = pclose(pipe);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
};

TEST_F(DumpGoldens, EveryCorpusFileMatchesItsGolden)
{
    for (const CorpusEntry &e : allEntries()) {
        std::string trace = corpusDir() + "/" + e.stem() + ".trace";
        std::string golden_path =
            corpusDir() + "/golden/" + e.stem() + ".dump";
        std::string golden = slurpText(golden_path);
        ASSERT_FALSE(golden.empty())
            << golden_path << " is missing — regenerate with "
            << "tests/corpus/generate.sh";

        std::string out;
        int rc = runDump("--ops=3 '" + trace + "'", out);
        EXPECT_EQ(rc, 0) << out;
        EXPECT_EQ(out, golden)
            << e.stem() << ": paralog-dump output drifted from its "
            << "golden — if the change is deliberate, regenerate "
            << "tests/corpus/";
    }
}

TEST_F(DumpGoldens, HeapReadPathPrintsTheSameDump)
{
    // --no-mmap exercises the reader's heap fallback end to end; the
    // bytes printed must not depend on how the file was loaded.
    CorpusEntry e{LifeguardKind::kTaintCheck, MemoryModel::kTSO, 2};
    std::string trace = corpusDir() + "/" + e.stem() + ".trace";
    std::string a, b;
    EXPECT_EQ(runDump("--ops=3 '" + trace + "'", a), 0);
    EXPECT_EQ(runDump("--no-mmap --ops=3 '" + trace + "'", b), 0);
    EXPECT_EQ(a, b);
}

TEST_F(DumpGoldens, RejectsGarbageWithAnError)
{
    std::string bad = ::testing::TempDir() + "paralog_dump_garbage_" +
                      std::to_string(::getpid()) + ".trace";
    std::FILE *f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 200; ++i)
        std::fputc(0x5A, f);
    std::fclose(f);
    std::string out;
    EXPECT_EQ(runDump("'" + bad + "'", out), 1);
    EXPECT_NE(out.find("bad magic"), std::string::npos) << out;
    std::remove(bad.c_str());
}

} // namespace
} // namespace paralog
