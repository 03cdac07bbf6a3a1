/**
 * @file
 * Differential tests for the host-parallel replay engine
 * (`--lg-threads`, core/replay_concurrent.cpp): for every lifeguard ×
 * memory model × core count, a recording replayed
 * concurrently must match the serial engine at ResultTier::kResults
 * (core/run_stats.hpp), while its simulated timing is relaxed. Also
 * covers failure containment: a panic on a consumer thread must
 * surface on the cell-owning thread (and come back as a failed cell
 * through runMatrix), never escape a host thread; and the seal-protocol
 * stall watchdog (fault point "seal.stall").
 *
 * The whole suite runs under -fsanitize=thread in CI (`tsan` label):
 * the differential matrix doubles as the data-race proof for the
 * ring hand-off, the progress-table backbone, and the shared
 * delivery/analysis structures in concurrent mode.
 *
 * The engine's publication plan (core/publication_plan.hpp, one decode
 * per stream with cross-stream seals resolved after the pass) is also
 * checked entry for entry against an independent two-pass builder kept
 * here as the oracle, over every committed corpus recording
 * (PARALOG_CORPUS, set by CTest) and a fresh TSO recording.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "core/publication_plan.hpp"
#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "trace/trace_reader.hpp"

namespace paralog {
namespace {

using test::QuietTest;

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_conc_" + tag + "_" +
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

// ------------------------------------------- differential matrix ----

struct ConcCell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t cores;
};

class ConcurrentMatchesSerial : public test::QuietTestWithParam<ConcCell>
{
};

TEST_P(ConcurrentMatchesSerial, FingerprintAndStatsIdentical)
{
    const ConcCell &cell = GetParam();
    TempTrace tmp("diff");
    RunSpec rec = makeSpec(WorkloadKind::kLu, cell.lifeguard, cell.cores,
                           cell.memoryModel, 400, tmp.path());
    RunResult live = recordExperiment(rec);
    ASSERT_NE(live.shadowFingerprint, 0u);

    RunSpec replay = makeSpec(WorkloadKind::kLu, cell.lifeguard,
                              cell.cores, cell.memoryModel, 400, "",
                              tmp.path());
    RunResult serial = replayExperiment(replay);
    // Sanity: the serial engine reproduces the recording exactly.
    EXPECT_EQ(resultMismatch(ResultTier::kExact, serial, live), "");

    // The concurrent engine self-checks its results against the trace
    // footer (panics on divergence); the host-side comparison here is
    // the belt to that suspenders. lgThreads beyond the core count
    // exercises the min(lgThreads, k) clamp.
    for (std::uint32_t threads : {2u, 4u}) {
        RunSpec conc = replay;
        conc.opt.lgThreads = threads;
        RunResult result = replayExperiment(conc);
        EXPECT_EQ(resultMismatch(ResultTier::kResults, result, serial), "");
    }
}

std::vector<ConcCell>
allConcCells()
{
    std::vector<ConcCell> cells;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t cores : {1u, 2u, 4u})
                cells.push_back(ConcCell{lg, mm, cores});
        }
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModelsCores, ConcurrentMatchesSerial,
    ::testing::ValuesIn(allConcCells()),
    [](const ::testing::TestParamInfo<ConcCell> &info) {
        return std::string(toString(info.param.lifeguard)) + "_" +
               toString(info.param.memoryModel) + "_" +
               std::to_string(info.param.cores) + "c";
    });

class ConcurrentModes : public QuietTest
{
};

TEST_F(ConcurrentModes, OceanMatchesRecording)
{
    // The differential matrix replays lu; ocean's stencil sweeps give
    // the shared chunk table a second, differently shaped access
    // pattern.
    TempTrace tmp("ocean");
    RunSpec rec = makeSpec(WorkloadKind::kOcean,
                           LifeguardKind::kTaintCheck, 4,
                           MemoryModel::kSC, 400, tmp.path());
    RunResult live = recordExperiment(rec);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    cfg.lgThreads = 4;
    ReplayPlatform rp(std::move(cfg));
    ASSERT_TRUE(rp.concurrent());
    EXPECT_EQ(resultMismatch(ResultTier::kResults, rp.run(), live), "");
}

TEST_F(ConcurrentModes, TotalCyclesCoverTheRecordedApplicationExit)
{
    // The application's exit journals no op, so the lifeguard cores can
    // go idle before it; like serial replay, the concurrent engine must
    // still end no earlier than the latest recorded app exit. Ocean
    // AddrCheck at the CLI's default scale delivers only 28 records.
    TempTrace tmp("appexit");
    RunSpec rec = makeSpec(WorkloadKind::kOcean, LifeguardKind::kAddrCheck,
                           4, MemoryModel::kSC, 20000, tmp.path());
    RunResult live = recordExperiment(rec);
    Cycle last_exit = 0;
    for (const AppThreadStats &a : live.app)
        last_exit = std::max(last_exit, a.doneAt);
    ASSERT_GT(last_exit, 0u);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    cfg.lgThreads = 2;
    ReplayPlatform rp(std::move(cfg));
    ASSERT_TRUE(rp.concurrent());
    EXPECT_GE(rp.run().totalCycles, last_exit);
}

TEST_F(ConcurrentModes, ZeroAndOneThreadSelectTheSerialEngine)
{
    TempTrace tmp("serialsel");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    for (std::uint32_t threads : {0u, 1u}) {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        cfg.lgThreads = threads;
        ReplayPlatform rp(std::move(cfg));
        EXPECT_FALSE(rp.concurrent());
        // The serial engine self-checks bit-identically (all timing
        // columns included) — run() panicking would fail the test.
        RunResult result = rp.run();
        EXPECT_NE(result.shadowFingerprint, 0u);
    }
}

TEST_F(ConcurrentModes, RepeatedConcurrentRunsAreStable)
{
    // Host-thread scheduling varies run to run; analysis results must
    // not. A handful of repeats under the most protocol-heavy cell
    // (TSO + ConflictAlerts + LockSet's read-side metadata writes).
    TempTrace tmp("stable");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kLockSet, 4,
                           MemoryModel::kTSO, 400, tmp.path());
    recordExperiment(rec);

    RunSpec replay = makeSpec(WorkloadKind::kLu, LifeguardKind::kLockSet,
                              4, MemoryModel::kTSO, 400, "", tmp.path());
    RunResult serial = replayExperiment(replay);
    for (int i = 0; i < 3; ++i) {
        RunSpec conc = replay;
        conc.opt.lgThreads = 4;
        RunResult result = replayExperiment(conc);
        EXPECT_EQ(resultMismatch(ResultTier::kResults, result, serial), "");
    }
}

// ------------------------------------------------ publication plan ----

struct TagHash
{
    std::size_t
    operator()(const VersionTag &t) const
    {
        return std::hash<std::uint64_t>()(
            (static_cast<std::uint64_t>(t.tid) << 48) ^ t.rid);
    }
};

std::uint64_t
issuerKey(ThreadId tid, RecordId rid)
{
    return (static_cast<std::uint64_t>(tid) << 48) ^ rid;
}

/**
 * Oracle: the plan built by two full scans of the journal, every seal
 * applied in journal order. Pass A collects the cross-stream facts —
 * per version tag the last kInsertProduce gseq, per CA sequence the
 * last broadcast gseq, per issuer record the last broadcast naming it.
 * Pass B rebuilds each stream's shape and applies every seal at the
 * op that causes it, looking the cross-stream facts up in the pass-A
 * maps.
 */
std::vector<StreamPlan>
twoPassPlans(const std::string &path, std::uint32_t k)
{
    using trace::OpCode;
    trace::TraceReader reader(path);
    EXPECT_TRUE(reader.ok()) << reader.error();

    std::unordered_map<VersionTag, std::uint64_t, TagHash> lastProduce;
    std::unordered_map<std::uint64_t, std::uint64_t> caGseq;
    std::unordered_map<std::uint64_t, std::uint64_t> issuerGseq;
    for (ThreadId t = 0; t < k; ++t) {
        trace::TraceReader::OpStream s = reader.opStream(t);
        trace::TraceOp op;
        while (s.next(op)) {
            if (op.op == OpCode::kInsertProduce) {
                std::uint64_t &g = lastProduce[op.version];
                g = std::max(g, op.gseq);
            } else if (op.op == OpCode::kCaBroadcast) {
                std::uint64_t &g = caGseq[op.ca.seq];
                g = std::max(g, op.gseq);
                std::uint64_t &ig = issuerGseq[issuerKey(
                    op.ca.issuer, op.ca.issuerEventRid)];
                ig = std::max(ig, op.gseq);
            }
        }
    }

    std::vector<StreamPlan> plans(k);
    for (ThreadId t = 0; t < k; ++t) {
        std::vector<SealEntry> &seq = plans[t].seq;
        RecordId visLimit = kInvalidRecord;
        std::vector<std::size_t> pendingVis;
        auto lower = [&seq](RecordId rid) {
            return std::lower_bound(
                seq.begin(), seq.end(), rid,
                [](const SealEntry &e, RecordId r) { return e.rid < r; });
        };
        auto sealRange = [&seq, &lower](RecordId rid, std::uint64_t g) {
            for (auto it = lower(rid); it != seq.end() && it->rid == rid;
                 ++it)
                it->seal = std::max(it->seal, g);
        };
        auto trackVisibility = [&](std::size_t idx, RecordId rid) {
            if (visLimit != kInvalidRecord && rid >= visLimit)
                pendingVis.push_back(idx);
        };

        trace::TraceReader::OpStream s = reader.opStream(t);
        trace::TraceOp op;
        while (s.next(op)) {
            switch (op.op) {
              case OpCode::kAppend:
              case OpCode::kAppendCa: {
                SealEntry e{op.rec.rid, op.rec.type, op.gseq};
                if (e.type == EventType::kCaBegin ||
                    e.type == EventType::kCaEnd) {
                    auto it = caGseq.find(op.rec.value);
                    if (it != caGseq.end())
                        e.seal = std::max(e.seal, it->second);
                }
                auto it = issuerGseq.find(issuerKey(t, e.rid));
                if (it != issuerGseq.end())
                    e.seal = std::max(e.seal, it->second);
                seq.push_back(e);
                trackVisibility(seq.size() - 1, e.rid);
                break;
              }
              case OpCode::kInsertProduce: {
                auto pos = lower(op.rid);
                auto ins = pos;
                for (auto it = pos;
                     it != seq.end() && it->rid == op.rid; ++it) {
                    if (it->type == EventType::kStore) {
                        ins = it;
                        break;
                    }
                }
                std::size_t idx =
                    static_cast<std::size_t>(ins - seq.begin());
                seq.insert(ins, SealEntry{op.rid,
                                          EventType::kProduceVersion,
                                          op.gseq});
                for (std::size_t &p : pendingVis)
                    if (p >= idx)
                        ++p;
                trackVisibility(idx, op.rid);
                break;
              }
              case OpCode::kVisLimit:
                for (std::size_t i = 0; i < pendingVis.size();) {
                    SealEntry &e = seq[pendingVis[i]];
                    if (op.visLimit == kInvalidRecord ||
                        e.rid < op.visLimit) {
                        e.seal = std::max(e.seal, op.gseq);
                        pendingVis[i] = pendingVis.back();
                        pendingVis.pop_back();
                    } else {
                        ++i;
                    }
                }
                visLimit = op.visLimit;
                break;
              case OpCode::kAttachArcs:
                sealRange(op.rid, op.gseq);
                break;
              case OpCode::kAnnotateConsume: {
                auto it = lastProduce.find(op.version);
                if (it != lastProduce.end() && op.gseq < it->second)
                    sealRange(op.rid, op.gseq);
                break;
              }
              case OpCode::kCaBroadcast:
              case OpCode::kRetire:
                break;
            }
        }
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_TRUE(pendingVis.empty()) << "stream " << t;

        plans[t].pubSeal.resize(seq.size());
        std::uint64_t run = 0;
        for (std::size_t i = 0; i < seq.size(); ++i) {
            run = std::max(run, seq[i].seal);
            plans[t].pubSeal[i] = run;
        }
    }
    return plans;
}

/** Both builders on @p path; the plans must agree entry for entry. */
void
expectPlanMatchesOracle(const std::string &path)
{
    SCOPED_TRACE(path);
    std::uint32_t k = 0;
    {
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << reader.error();
        k = reader.config().appThreads;
    }
    std::vector<StreamPlan> got = buildPublicationPlans(path, k);
    std::vector<StreamPlan> want = twoPassPlans(path, k);
    ASSERT_EQ(got.size(), want.size());
    for (ThreadId t = 0; t < k; ++t) {
        const StreamPlan &g = got[t];
        const StreamPlan &w = want[t];
        ASSERT_EQ(g.seq.size(), w.seq.size()) << "stream " << t;
        ASSERT_EQ(g.pubSeal, w.pubSeal) << "stream " << t;
        for (std::size_t i = 0; i < w.seq.size(); ++i) {
            ASSERT_EQ(g.seq[i].rid, w.seq[i].rid)
                << "stream " << t << " entry " << i;
            ASSERT_EQ(g.seq[i].type, w.seq[i].type)
                << "stream " << t << " entry " << i;
            ASSERT_EQ(g.seq[i].seal, w.seq[i].seal)
                << "stream " << t << " entry " << i;
        }
    }
}

class PublicationPlan : public QuietTest
{
};

TEST_F(PublicationPlan, OnePassMatchesTwoPassOnTheCorpus)
{
    const char *dir = std::getenv("PARALOG_CORPUS");
    if (!dir)
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    std::vector<std::string> paths;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".trace")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());
    // Four lifeguards x {SC, TSO} x {v1, v2}.
    ASSERT_GE(paths.size(), 16u);
    for (const std::string &path : paths)
        expectPlanMatchesOracle(path);
}

TEST_F(PublicationPlan, OnePassMatchesTwoPassOnFreshTsoRecordings)
{
    // TSO at 4 cores: lu exercises produce insertions, consume
    // annotations and ConflictAlert broadcasts; swaptions adds many
    // more broadcasts and CA arrival records.
    for (WorkloadKind w : {WorkloadKind::kLu, WorkloadKind::kSwaptions}) {
        TempTrace tmp("plan");
        RunSpec rec = makeSpec(w, LifeguardKind::kTaintCheck, 4,
                               MemoryModel::kTSO, 2000, tmp.path());
        recordExperiment(rec);
        expectPlanMatchesOracle(tmp.path());
    }
}

// --------------------------------------------- failure containment ----

class ConcurrentFailures : public QuietTest
{
};

TEST_F(ConcurrentFailures, ConsumerThreadPanicSurfacesOnOwningThread)
{
    // Fault point "lg.fail" injects a panic on the consumer thread that owns
    // the named lifeguard stream. The engine must capture it, abort the
    // other workers, join everything, and rethrow at the join point on
    // the cell-owning thread — where panic-throw scoping catches it.
    TempTrace tmp("faillg");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    RunSpec conc = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 300, "", tmp.path());
    conc.opt.lgThreads = 2;

    ::setenv("PARALOG_FAULT", "lg.fail=1", 1);
    bool prev = setPanicThrows(true);
    try {
        EXPECT_THROW(
            { replayExperiment(conc); }, SimPanicError);
    } catch (...) {
    }
    setPanicThrows(prev);
    ::unsetenv("PARALOG_FAULT");

    // The injected failure must not wedge later runs: the same replay
    // without the injection still succeeds in this process.
    RunResult result = replayExperiment(conc);
    EXPECT_NE(result.shadowFingerprint, 0u);
}

TEST_F(ConcurrentFailures, SealStallTripsTheWatchdogWithDump)
{
    // Fault point "seal.stall" suppresses publication for one stream:
    // its consumer starves, the producer's tail flush never completes,
    // and the watchdog must catch the stall (joining the consumers
    // before it panics, so the throw below crosses no live threads).
    TempTrace tmp("sealstall");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                           2, MemoryModel::kSC, 400, tmp.path());
    recordExperiment(rec);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    cfg.lgThreads = 2;
    cfg.stallWatchdogIters = 20'000;

    armFault("seal.stall", 0);
    bool prev = setPanicThrows(true);
    std::string message;
    try {
        ReplayPlatform rp(std::move(cfg));
        rp.run();
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    clearFault("seal.stall");
    EXPECT_NE(message.find("watchdog"), std::string::npos) << message;
}

TEST_F(ConcurrentFailures, FailedConcurrentCellIsContainedByRunMatrix)
{
    // runMatrix's panic-throw scope + the engine's capture-and-rethrow
    // at the join point: a cell whose worker thread panics comes back
    // `failed` with the message, and the remaining cells still run.
    TempTrace tmp("failcell");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    std::vector<RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        RunSpec s = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                             2, MemoryModel::kSC, 300, "", tmp.path());
        s.opt.lgThreads = 2;
        specs.push_back(s);
    }

    ::setenv("PARALOG_FAULT", "lg.fail=0", 1);
    std::vector<CellResult> cells = runMatrix(specs, 1);
    ::unsetenv("PARALOG_FAULT");
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells) {
        EXPECT_TRUE(cell.failed);
        EXPECT_NE(cell.error.find("lg.fail"), std::string::npos)
            << cell.error;
    }

    // Fault point "cell.fail" (the matrix runner's injection hook)
    // composes with concurrent cells at jobs > 1: only the named cell
    // fails.
    ::setenv("PARALOG_FAULT", "cell.fail=1", 1);
    cells = runMatrix(specs, 2);
    ::unsetenv("PARALOG_FAULT");
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_FALSE(cells[0].failed) << cells[0].error;
    EXPECT_TRUE(cells[1].failed);
    EXPECT_FALSE(cells[2].failed) << cells[2].error;
}

} // namespace
} // namespace paralog
