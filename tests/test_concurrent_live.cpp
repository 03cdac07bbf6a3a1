/**
 * @file
 * Differential tests for the host-parallel *live* monitoring engine
 * (`--lg-threads` without `--replay`, core/platform_concurrent.cpp):
 * for every lifeguard × memory model × core count × thread count, a
 * live run with the lifeguard cores on host threads must match the
 * serial scheduler at ResultTier::kAnalysis (core/run_stats.hpp): one
 * tier below the replay-engine differential (test_concurrent_replay.cpp),
 * because live the two engines execute legitimately different
 * interleavings of the same program.
 *
 * Also covers: the refusal to record a live-parallel run (a journal
 * needs the serial scheduler's lifeguard-step interleaving), the
 * seal-protocol stall watchdog (fault point "seal.stall"), and failure
 * containment for producer-side panics and consumer-thread panics
 * (fault point "lg.fail"), standalone and through runMatrix.
 *
 * The whole suite runs under -fsanitize=thread in CI (`tsan` label):
 * the differential matrix doubles as the data-race proof for the
 * online publication seal, the producer/consumer ring hand-off, and
 * the shared delivery/analysis structures in live-concurrent mode.
 */

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "harness/paralog_test.hpp"

namespace paralog {
namespace {

using test::QuietTest;

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_live_" + tag + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** One live run, with the shadow fingerprint plain runs leave unset. */
RunResult
runLive(WorkloadKind w, LifeguardKind lg, std::uint32_t cores,
        MemoryModel mm, std::uint64_t scale, std::uint32_t lg_threads)
{
    ExperimentOptions opt = test::makeOptions(scale);
    opt.memoryModel = mm;
    opt.lgThreads = lg_threads;
    PlatformConfig cfg =
        makeConfig(w, lg, MonitorMode::kParallel, cores, opt);
    Platform p(std::move(cfg));
    RunResult result = p.run();
    result.shadowFingerprint = heapGlobalsFingerprint(p.lifeguard().shadow());
    return result;
}

// ------------------------------------------- differential matrix ----

struct LiveCell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t cores;
};

class LiveConcurrentMatchesSerial
    : public test::QuietTestWithParam<LiveCell>
{
};

TEST_P(LiveConcurrentMatchesSerial, AnalysisConclusionsIdentical)
{
    const LiveCell &cell = GetParam();
    RunResult serial = runLive(WorkloadKind::kLu, cell.lifeguard,
                               cell.cores, cell.memoryModel, 400, 0);
    ASSERT_NE(serial.shadowFingerprint, 0u);

    // lgThreads beyond the core count exercises the min(lgThreads, k)
    // consumer clamp (every cell at cores=1 runs a single consumer).
    for (std::uint32_t threads : {2u, 4u}) {
        RunResult conc = runLive(WorkloadKind::kLu, cell.lifeguard,
                                 cell.cores, cell.memoryModel, 400,
                                 threads);
        EXPECT_EQ(resultMismatch(ResultTier::kAnalysis, conc, serial), "");
    }
}

std::vector<LiveCell>
allLiveCells()
{
    std::vector<LiveCell> cells;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t cores : {1u, 2u, 4u})
                cells.push_back(LiveCell{lg, mm, cores});
        }
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModelsCores, LiveConcurrentMatchesSerial,
    ::testing::ValuesIn(allLiveCells()),
    [](const ::testing::TestParamInfo<LiveCell> &info) {
        return std::string(toString(info.param.lifeguard)) + "_" +
               toString(info.param.memoryModel) + "_" +
               std::to_string(info.param.cores) + "c";
    });

class LiveConcurrentModes : public QuietTest
{
};

TEST_F(LiveConcurrentModes, OceanMatchesSerial)
{
    // The differential matrix runs lu; ocean's stencil sweeps give the
    // shared chunk table a second, differently shaped access pattern.
    RunResult serial = runLive(WorkloadKind::kOcean,
                               LifeguardKind::kTaintCheck, 4,
                               MemoryModel::kSC, 400, 0);
    RunResult conc = runLive(WorkloadKind::kOcean, LifeguardKind::kTaintCheck,
                             4, MemoryModel::kSC, 400, 4);
    EXPECT_EQ(resultMismatch(ResultTier::kAnalysis, conc, serial), "");
}

TEST_F(LiveConcurrentModes, ZeroAndOneThreadSelectTheSerialEngine)
{
    for (std::uint32_t threads : {0u, 1u}) {
        ExperimentOptions opt = test::makeOptions(300);
        opt.lgThreads = threads;
        PlatformConfig cfg =
            makeConfig(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                       MonitorMode::kParallel, 2, opt);
        Platform p(std::move(cfg));
        EXPECT_FALSE(p.concurrentLive());
        RunResult result = p.run();
        EXPECT_GT(result.totalCycles, 0u);
    }
    // And the engine is parallel-monitoring-only: the no-monitoring
    // baseline has no lifeguard cores to thread.
    ExperimentOptions opt = test::makeOptions(300);
    opt.lgThreads = 4;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                   MonitorMode::kNoMonitoring, 2, opt);
    Platform p(std::move(cfg));
    EXPECT_FALSE(p.concurrentLive());
}

TEST_F(LiveConcurrentModes, RepeatedConcurrentRunsAreStable)
{
    // Host-thread scheduling varies run to run; analysis conclusions
    // must not. Repeats under the most protocol-heavy cell (TSO +
    // ConflictAlerts + LockSet's serialized read-side metadata writes).
    RunResult serial = runLive(WorkloadKind::kLu, LifeguardKind::kLockSet,
                               4, MemoryModel::kTSO, 400, 0);
    for (int i = 0; i < 3; ++i) {
        RunResult conc = runLive(WorkloadKind::kLu,
                                 LifeguardKind::kLockSet, 4,
                                 MemoryModel::kTSO, 400, 4);
        EXPECT_EQ(resultMismatch(ResultTier::kAnalysis, conc, serial), "");
    }
}

// ------------------------------------------------------ recording ----

class LiveRecording : public QuietTest
{
};

TEST_F(LiveRecording, RecordingWithLgThreadsPanics)
{
    // A journal stamps producer ops with the serial scheduler's
    // lifeguard-step count, which the live host-parallel engine does
    // not have: the Platform refuses a recorder when lgThreads >= 2
    // (the CLI refuses --record with --lg-threads=N before that).
    TempTrace tmp("rec");
    RunSpec rec;
    rec.workload = WorkloadKind::kLu;
    rec.lifeguard = LifeguardKind::kTaintCheck;
    rec.mode = MonitorMode::kParallel;
    rec.cores = 2;
    rec.opt = test::makeOptions(300);
    rec.opt.lgThreads = 2;
    rec.recordPath = tmp.path();

    bool prev = setPanicThrows(true);
    std::string message;
    try {
        recordExperiment(rec);
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    EXPECT_NE(message.find("trace recording requires the serial engine"),
              std::string::npos)
        << message;
}

// ----------------------------- watchdog + failure containment ----

class LiveConcurrentFailures : public QuietTest
{
};

TEST_F(LiveConcurrentFailures, SealStallTripsTheWatchdogWithDump)
{
    // Fault point "seal.stall" suppresses publication for one stream:
    // its consumer starves, global progress freezes, and the live
    // watchdog must catch the stall (joining the workers before it
    // panics, so the throw below crosses no live threads).
    ExperimentOptions opt = test::makeOptions(400);
    opt.lgThreads = 2;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                   MonitorMode::kParallel, 2, opt);
    cfg.stallWatchdogIters = 20'000;

    armFault("seal.stall", 0);
    bool prev = setPanicThrows(true);
    std::string message;
    try {
        Platform p(std::move(cfg));
        p.run();
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    clearFault("seal.stall");
    EXPECT_NE(message.find("watchdog"), std::string::npos) << message;
}

TEST_F(LiveConcurrentFailures, ProducerPanicJoinsRunningConsumers)
{
    // A panic on the producer (calling) thread while the consumers are
    // still running — here the simulated-time watchdog — must stop and
    // join them before the exception leaves the engine, and leave
    // nothing behind that wedges a later run in this process.
    ExperimentOptions opt = test::makeOptions(400);
    opt.lgThreads = 2;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                   MonitorMode::kParallel, 2, opt);
    cfg.maxCycles = 10;

    bool prev = setPanicThrows(true);
    std::string message;
    try {
        Platform p(std::move(cfg));
        p.run();
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    EXPECT_NE(message.find("simulation watchdog"), std::string::npos)
        << message;

    RunResult result =
        runExperiment(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                      MonitorMode::kParallel, 2, opt);
    EXPECT_GT(result.totalCycles, 0u);
}

TEST_F(LiveConcurrentFailures, ConsumerThreadPanicSurfacesOnOwningThread)
{
    // Fault point "lg.fail" panics on the consumer thread that owns the
    // named lifeguard stream. The engine must capture it, abort the
    // other workers, join everything, and rethrow at the join point on
    // the cell-owning thread.
    ExperimentOptions opt = test::makeOptions(300);
    opt.lgThreads = 2;

    armFault("lg.fail", 1);
    bool prev = setPanicThrows(true);
    try {
        EXPECT_THROW(
            {
                runExperiment(WorkloadKind::kLu,
                              LifeguardKind::kTaintCheck,
                              MonitorMode::kParallel, 2, opt);
            },
            SimPanicError);
    } catch (...) {
    }
    setPanicThrows(prev);
    clearFault("lg.fail");

    // The injected failure must not wedge later runs in this process.
    RunResult result =
        runExperiment(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                      MonitorMode::kParallel, 2, opt);
    EXPECT_GT(result.totalCycles, 0u);
}

TEST_F(LiveConcurrentFailures, FailedLiveCellIsContainedByRunMatrix)
{
    // runMatrix's panic-throw scope + the engine's capture-and-rethrow:
    // a live cell whose consumer thread panics comes back `failed` with
    // the message, and the remaining cells still run.
    std::vector<RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        RunSpec s;
        s.workload = WorkloadKind::kLu;
        s.lifeguard = LifeguardKind::kAddrCheck;
        s.mode = MonitorMode::kParallel;
        s.cores = 2;
        s.opt = test::makeOptions(300);
        s.opt.lgThreads = 2;
        specs.push_back(s);
    }

    armFault("lg.fail", 0);
    std::vector<CellResult> cells = runMatrix(specs, 1);
    clearFault("lg.fail");
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells) {
        EXPECT_TRUE(cell.failed);
        EXPECT_NE(cell.error.find("lg.fail"), std::string::npos)
            << cell.error;
    }

    // Without the fault armed, the same specs run clean at jobs > 1
    // (live-concurrent cells nest inside matrix host threads).
    cells = runMatrix(specs, 2);
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells)
        EXPECT_FALSE(cell.failed) << cell.error;
}

} // namespace
} // namespace paralog
