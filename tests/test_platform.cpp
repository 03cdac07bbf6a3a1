/**
 * @file
 * Integration tests: the full ParaLog platform running real workloads,
 * checking both performance-model sanity and monitoring correctness
 * (shadow state consistency, ordering, ConflictAlert effects).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "harness/paralog_test.hpp"
#include "lifeguard/addrcheck.hpp"
#include "lifeguard/taintcheck.hpp"
#include "trace/format.hpp"
#include "trace/recorder.hpp"

namespace paralog {
namespace {

class PlatformTest : public test::QuietTest
{
};

TEST_F(PlatformTest, NoMonitoringCompletes)
{
    RunResult r = runExperiment(WorkloadKind::kLu,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kNoMonitoring, 2, opts());
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.lifeguard.size(), 0u);
    EXPECT_GT(r.retiredTotal(), 1000u);
}

TEST_F(PlatformTest, ParallelMonitoringCompletesAndConsumesAll)
{
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    RunResult r = p.run();
    EXPECT_GT(r.totalCycles, 0u);
    ASSERT_EQ(r.lifeguard.size(), 2u);
    for (ThreadId t = 0; t < 2; ++t) {
        EXPECT_TRUE(p.capture(t).consumerEmpty())
            << "lifeguard " << t << " left records unprocessed";
    }
    // Lifeguards must have seen the thread-done records.
    for (const auto &l : r.lifeguard)
        EXPECT_GT(l.recordsProcessed, 100u);
}

TEST_F(PlatformTest, MonitoringDoesNotPerturbApplication)
{
    // The application must compute the same thing with and without
    // monitoring: same program instruction counts.
    RunResult none = runExperiment(WorkloadKind::kOcean,
                                   LifeguardKind::kTaintCheck,
                                   MonitorMode::kNoMonitoring, 2, opts());
    RunResult mon = runExperiment(WorkloadKind::kOcean,
                                  LifeguardKind::kTaintCheck,
                                  MonitorMode::kParallel, 2, opts());
    EXPECT_EQ(none.retiredTotal(), mon.retiredTotal());
}

TEST_F(PlatformTest, MonitoringAddsBoundedOverhead)
{
    RunResult none = runExperiment(WorkloadKind::kLu,
                                   LifeguardKind::kTaintCheck,
                                   MonitorMode::kNoMonitoring, 2, opts());
    RunResult mon = runExperiment(WorkloadKind::kLu,
                                  LifeguardKind::kTaintCheck,
                                  MonitorMode::kParallel, 2, opts());
    EXPECT_GE(mon.totalCycles, none.totalCycles);
    EXPECT_LT(mon.totalCycles, none.totalCycles * 5);
}

TEST_F(PlatformTest, ParallelScalesWithThreads)
{
    ExperimentOptions o = opts(20000);
    RunResult r1 = runExperiment(WorkloadKind::kBlackscholes,
                                 LifeguardKind::kTaintCheck,
                                 MonitorMode::kParallel, 1, o);
    RunResult r4 = runExperiment(WorkloadKind::kBlackscholes,
                                 LifeguardKind::kTaintCheck,
                                 MonitorMode::kParallel, 4, o);
    // Strong scaling: 4 threads should be at least 2x faster.
    EXPECT_LT(r4.totalCycles * 2, r1.totalCycles);
}

TEST_F(PlatformTest, TaintPropagatesAcrossThreads)
{
    // LU: thread 0's syscallRead taints row 0; elimination propagates
    // pivot-row data into other rows via other threads, so taint must
    // appear in memory written by threads other than 0.
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    p.run();
    auto &taint = static_cast<TaintCheck &>(p.lifeguard());
    // The first matrix row was tainted by the syscall...
    EXPECT_TRUE(taint.isTainted(AddressLayout::kGlobalBase, 64));
    // ...and elimination pass 0 copies pivot row 0 into rows > 0,
    // which are updated by *both* threads.
    std::uint64_t n = 96;
    bool propagated = false;
    for (std::uint64_t i = 1; i < 8 && !propagated; ++i) {
        Addr row_i = AddressLayout::kGlobalBase + i * n * 8;
        propagated = taint.isTainted(row_i + 8, 8 * 16);
    }
    EXPECT_TRUE(propagated);
}

TEST_F(PlatformTest, AddrCheckShadowMatchesHeap)
{
    PlatformConfig cfg = makeConfig(WorkloadKind::kSwaptions,
                                    LifeguardKind::kAddrCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    p.run();
    auto &ac = static_cast<AddrCheck &>(p.lifeguard());
    // No violations on a correct program.
    EXPECT_EQ(ac.violations.count(), 0u);
    // Final shadow state: allocated bytes marked, freed bytes cleared.
    Heap &heap = p.heap();
    EXPECT_GT(heap.stats.get("allocs"), 10u);
}

TEST_F(PlatformTest, CorrectProgramsRaiseNoViolations)
{
    for (WorkloadKind w : {WorkloadKind::kOcean, WorkloadKind::kFmm,
                           WorkloadKind::kRadiosity}) {
        RunResult r = runExperiment(w, LifeguardKind::kAddrCheck,
                                    MonitorMode::kParallel, 2, opts());
        EXPECT_EQ(r.violationCount, 0u) << toString(w);
    }
}

TEST_F(PlatformTest, ConflictAlertsIssuedForSwaptions)
{
    PlatformConfig cfg = makeConfig(WorkloadKind::kSwaptions,
                                    LifeguardKind::kAddrCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    p.run();
    // Every malloc and free broadcasts (AddrCheck subscribes to both).
    std::uint64_t pairs = p.heap().stats.get("allocs") +
                          p.heap().stats.get("frees");
    EXPECT_EQ(p.caManager().issued(), pairs);
    EXPECT_EQ(p.caManager().liveBroadcasts(), 0u); // all retired
}

TEST_F(PlatformTest, AddrCheckSkipsSyscallAlerts)
{
    // AddrCheck's policy does not subscribe to syscall CAs; LU issues a
    // syscall but no malloc/frees, so no broadcasts at all.
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kAddrCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    p.run();
    EXPECT_EQ(p.caManager().issued(), 0u);
}

TEST_F(PlatformTest, DeterministicAcrossRuns)
{
    RunResult a = runExperiment(WorkloadKind::kBarnes,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 2, opts());
    RunResult b = runExperiment(WorkloadKind::kBarnes,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 2, opts());
    EXPECT_EQ(resultMismatch(ResultTier::kExact, b, a), "");
}

TEST_F(PlatformTest, SeedChangesExecution)
{
    ExperimentOptions o1 = opts();
    ExperimentOptions o2 = opts();
    o2.seed = 99;
    RunResult a = runExperiment(WorkloadKind::kBarnes,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 2, o1);
    RunResult b = runExperiment(WorkloadKind::kBarnes,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 2, o2);
    EXPECT_NE(a.totalCycles, b.totalCycles);
}

TEST_F(PlatformTest, AcceleratorsReduceDeliveredEvents)
{
    ExperimentOptions with = opts();
    ExperimentOptions without = opts();
    without.accelerators = false;
    RunResult r_with = runExperiment(WorkloadKind::kLu,
                                     LifeguardKind::kTaintCheck,
                                     MonitorMode::kParallel, 2, with);
    RunResult r_without = runExperiment(WorkloadKind::kLu,
                                        LifeguardKind::kTaintCheck,
                                        MonitorMode::kParallel, 2,
                                        without);
    EXPECT_LT(r_with.eventsHandledTotal() * 2,
              r_without.eventsHandledTotal());
    EXPECT_LT(r_with.totalCycles, r_without.totalCycles);
}

TEST_F(PlatformTest, AcceleratorsPreserveAnalysisResults)
{
    // Metadata conclusions must be identical with and without the
    // accelerators (they are transparent optimizations).
    for (bool accel : {true, false}) {
        ExperimentOptions o = opts();
        o.accelerators = accel;
        PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                        LifeguardKind::kTaintCheck,
                                        MonitorMode::kParallel, 2, o);
        Platform p(cfg);
        RunResult r = p.run();
        auto &taint = static_cast<TaintCheck &>(p.lifeguard());
        EXPECT_TRUE(taint.isTainted(AddressLayout::kGlobalBase, 64));
        EXPECT_EQ(r.violationCount, 0u);
    }
}

TEST_F(PlatformTest, PerCoreTrackingStillCorrect)
{
    ExperimentOptions o = opts();
    o.depTracking = DepTracking::kPerCore;
    RunResult r = runExperiment(WorkloadKind::kOcean,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 4, o);
    EXPECT_EQ(r.violationCount, 0u);
    EXPECT_GT(r.totalCycles, 0u);
}

TEST_F(PlatformTest, LogBufferBackpressure)
{
    // A tiny log buffer forces application stalls but not incorrectness.
    ExperimentOptions o = opts(4000);
    o.logBufferBytes = 256;
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, o);
    Platform p(cfg);
    RunResult r = p.run();
    Cycle log_stall = 0;
    for (const auto &a : r.app)
        log_stall += a.logFullStall;
    EXPECT_GT(log_stall, 0u);
    auto &taint = static_cast<TaintCheck &>(p.lifeguard());
    EXPECT_TRUE(taint.isTainted(AddressLayout::kGlobalBase, 64));
}

TEST_F(PlatformTest, MemCheckRunsCleanOnInitializingWorkload)
{
    PlatformConfig cfg = makeConfig(WorkloadKind::kFmm,
                                    LifeguardKind::kMemCheck,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    RunResult r = p.run();
    // FMM initializes its particle arrays before reading them.
    EXPECT_EQ(r.violationCount, 0u);
}

TEST_F(PlatformTest, LockSetCleanOnLockedWorkload)
{
    // Fluidanimate guards every shared cell access with its cell lock.
    PlatformConfig cfg = makeConfig(WorkloadKind::kFluidanimate,
                                    LifeguardKind::kLockSet,
                                    MonitorMode::kParallel, 2, opts());
    Platform p(cfg);
    RunResult r = p.run();
    EXPECT_EQ(r.violationCount, 0u);
}

TEST_F(PlatformTest, LockSetFlagsRacyWorkload)
{
    // Barnes performs intentionally racy force write-backs.
    PlatformConfig cfg = makeConfig(WorkloadKind::kBarnes,
                                    LifeguardKind::kLockSet,
                                    MonitorMode::kParallel, 4, opts());
    Platform p(cfg);
    RunResult r = p.run();
    EXPECT_GT(r.violationCount, 0u);
}

// ------------------------------------------------ write syscall ----

/**
 * Thread 0 allocates two 64-byte heap buffers, read()s untrusted input
 * into the first and then write()s either the first (tainted) or the
 * second (untouched) one out. Thread 1 stores to a few globals, so the
 * syscall ConflictAlerts have a peer to reach.
 */
class WriteSyscallWorkload : public Workload
{
  public:
    explicit WriteSyscallWorkload(bool write_tainted)
        : writeTainted_(write_tainted)
    {
    }

    const char *name() const override { return "write_syscall"; }

    ThreadProgramPtr
    makeThread(ThreadId tid, const WorkloadEnv &env) const override
    {
        return std::make_unique<Thread>(tid, env, writeTainted_);
    }

  private:
    struct Thread : public ThreadProgram
    {
        Thread(ThreadId tid, const WorkloadEnv &env, bool write_tainted)
            : tid_(tid), env_(env), writeTainted_(write_tainted)
        {
        }

        std::size_t
        take(std::vector<Inst> &out, ThreadContext &tc) override
        {
            const unsigned step = step_++;
            if (tid_ != 0) {
                if (step >= 8)
                    return 0;
                out.push_back(Inst::store(env_.globalBase + 8 * step, 0, 8));
                return 1;
            }
            switch (step) {
              case 0: out.push_back(Inst::malloc(1, kBytes)); break;
              case 1: out.push_back(Inst::malloc(2, kBytes)); break;
              case 2:
                out.push_back(Inst::syscallRead(tc.regs[1], kBytes));
                break;
              case 3:
                out.push_back(Inst::syscallWrite(
                    tc.regs[writeTainted_ ? 1 : 2], kBytes));
                break;
              default: return 0;
            }
            return 1;
        }

        static constexpr std::uint32_t kBytes = 64;
        ThreadId tid_;
        WorkloadEnv env_;
        bool writeTainted_;
        unsigned step_ = 0;
    };

    bool writeTainted_;
};

PlatformConfig
writeSyscallConfig(LifeguardKind lifeguard, bool write_tainted)
{
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, lifeguard, MonitorMode::kParallel, 2,
                   test::makeOptions());
    cfg.customWorkload =
        std::make_shared<WriteSyscallWorkload>(write_tainted);
    return cfg;
}

TEST_F(PlatformTest, WriteSyscallOfTaintedBufferIsReportedOnce)
{
    Platform p(writeSyscallConfig(LifeguardKind::kTaintCheck, true));
    RunResult r = p.run();
    EXPECT_EQ(r.violationCount, 1u);
    EXPECT_EQ(p.lifeguard().violations.count(
                  Violation::Kind::kTaintedOutput),
              1u);
}

TEST_F(PlatformTest, WriteSyscallOfUntouchedBufferIsClean)
{
    Platform p(writeSyscallConfig(LifeguardKind::kTaintCheck, false));
    EXPECT_EQ(p.run().violationCount, 0u);
}

TEST_F(PlatformTest, WriteSyscallIsCleanUnderAddrCheck)
{
    Platform p(writeSyscallConfig(LifeguardKind::kAddrCheck, true));
    EXPECT_EQ(p.run().violationCount, 0u);
}

TEST_F(PlatformTest, WriteSyscallViolationSurvivesV2RecordAndReplay)
{
    const std::string path = ::testing::TempDir() +
                             "paralog_write_syscall_" +
                             std::to_string(::getpid()) + ".trace";
    PlatformConfig cfg =
        writeSyscallConfig(LifeguardKind::kTaintCheck, true);
    trace::TraceRecorder recorder(
        path,
        trace::TraceConfig::forRun(cfg.sim, cfg.workload, cfg.lifeguard,
                                   cfg.scale),
        trace::kFormatVersionV2);
    ASSERT_TRUE(recorder.ok()) << recorder.error();
    cfg.recorder = &recorder;
    Platform p(cfg);
    RunResult live = p.run();
    live.shadowFingerprint = heapGlobalsFingerprint(p.lifeguard().shadow());
    ASSERT_TRUE(recorder.finalize(live)) << recorder.error();
    ASSERT_EQ(live.violationCount, 1u);

    ReplayConfig rc;
    rc.path = path;
    ReplayPlatform rp(std::move(rc));
    RunResult replayed = rp.run();
    EXPECT_EQ(replayed.violationCount, 1u);
    EXPECT_EQ(replayed.violationFingerprint, live.violationFingerprint);
    std::remove(path.c_str());
}

// ------------------------------------------------- result tiers ----

struct TierColumn
{
    std::string name; ///< how resultMismatch names it
    /// The lowest tier comparing the column; the tiers are nested, so
    /// every tier above it compares it too.
    ResultTier from;
    std::function<void(RunResult &)> bump;
};

/** Every RunResult column, bumped one at a time, on a two-thread,
 *  two-lifeguard result. */
std::vector<TierColumn>
allTierColumns()
{
    using T = ResultTier;
    std::vector<TierColumn> cols = {
        {"shadowFingerprint", T::kAnalysis,
         [](RunResult &r) { ++r.shadowFingerprint; }},
        {"violationFingerprint", T::kAnalysis,
         [](RunResult &r) { ++r.violationFingerprint; }},
        {"versionsProduced", T::kResults,
         [](RunResult &r) { ++r.versionsProduced; }},
        {"versionsConsumed", T::kResults,
         [](RunResult &r) { ++r.versionsConsumed; }},
        {"lifeguard count", T::kResults,
         [](RunResult &r) { r.lifeguard.emplace_back(); }},
        {"totalCycles", T::kExact, [](RunResult &r) { ++r.totalCycles; }},
        {"violationCount", T::kExact,
         [](RunResult &r) { ++r.violationCount; }}, // 1 -> 2
        {"versionStallRetries", T::kExact,
         [](RunResult &r) { ++r.versionStallRetries; }},
        {"app count", T::kExact, [](RunResult &r) { r.app.emplace_back(); }},
    };
    using LgField = std::uint64_t LifeguardThreadStats::*;
    const std::pair<const char *, LgField> lg_fields[] = {
        {"usefulCycles", &LifeguardThreadStats::usefulCycles},
        {"depStall", &LifeguardThreadStats::depStall},
        {"caStall", &LifeguardThreadStats::caStall},
        {"versionStall", &LifeguardThreadStats::versionStall},
        {"appStall", &LifeguardThreadStats::appStall},
        {"recordsProcessed", &LifeguardThreadStats::recordsProcessed},
        {"eventsHandled", &LifeguardThreadStats::eventsHandled},
        {"doneAt", &LifeguardThreadStats::doneAt},
    };
    using AppField = std::uint64_t AppThreadStats::*;
    const std::pair<const char *, AppField> app_fields[] = {
        {"execCycles", &AppThreadStats::execCycles},
        {"logFullStall", &AppThreadStats::logFullStall},
        {"lockStall", &AppThreadStats::lockStall},
        {"barrierStall", &AppThreadStats::barrierStall},
        {"drainStall", &AppThreadStats::drainStall},
        {"caAckCycles", &AppThreadStats::caAckCycles},
        {"storeBufStall", &AppThreadStats::storeBufStall},
        {"retired", &AppThreadStats::retired},
        {"programInsts", &AppThreadStats::programInsts},
        {"doneAt", &AppThreadStats::doneAt},
    };
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string at = "[" + std::to_string(i) + "].";
        for (const auto &[name, field] : lg_fields) {
            cols.push_back(
                {"lifeguard" + at + name,
                 field == &LifeguardThreadStats::recordsProcessed
                     ? T::kResults
                     : T::kExact,
                 [i, field = field](RunResult &r) {
                     ++(r.lifeguard[i].*field);
                 }});
        }
        for (const auto &[name, field] : app_fields) {
            cols.push_back({"app" + at + name, T::kExact,
                            [i, field = field](RunResult &r) {
                                ++(r.app[i].*field);
                            }});
        }
    }
    return cols;
}

TEST(ResultTierRule, EachColumnIsFlaggedByExactlyTheTiersListingIt)
{
    RunResult want;
    want.app.resize(2);
    want.lifeguard.resize(2);
    want.violationCount = 1;

    for (const TierColumn &col : allTierColumns()) {
        RunResult got = want;
        col.bump(got);
        for (ResultTier tier : {ResultTier::kAnalysis, ResultTier::kResults,
                                ResultTier::kExact}) {
            const bool listed =
                static_cast<int>(tier) >= static_cast<int>(col.from);
            const std::string diff = resultMismatch(tier, got, want);
            if (listed)
                EXPECT_EQ(diff.rfind(col.name + " = ", 0), 0u)
                    << col.name << " at tier " << static_cast<int>(tier)
                    << ": " << diff;
            else
                EXPECT_EQ(diff, "")
                    << col.name << " at tier " << static_cast<int>(tier);
        }
    }
}

TEST(ResultTierRule, FindingAnyViolationIsPinnedByEveryTier)
{
    RunResult want;
    want.lifeguard.resize(2);
    RunResult got = want;
    got.violationCount = 1; // 0 -> 1
    for (ResultTier tier : {ResultTier::kAnalysis, ResultTier::kResults,
                            ResultTier::kExact}) {
        EXPECT_EQ(resultMismatch(tier, got, want),
                  "violationCount (found-any) = 1, expected 0");
        EXPECT_EQ(resultMismatch(tier, want, want), "");
    }
}

} // namespace
} // namespace paralog
