/**
 * @file
 * Randomized differential TSO matrix: every lifeguard x {SC, TSO} x
 * {1, 2, 4, 8} cores at small scales. For each cell the TSO run must
 * (a) terminate (the previously deadlocking lockset+tso and grinding
 * addrcheck+tso combinations included), (b) reach the same final
 * analysis conclusions as the SC run (shadow fingerprint), and (c)
 * drain the version store completely (checked in the fixture
 * teardown). Also unit-tests VersionStore semantics and the platform
 * progress watchdog that turns any future protocol stall into a
 * diagnosable panic instead of a hang.
 */

#include <gtest/gtest.h>

#include "harness/paralog_test.hpp"
#include "lifeguard/version_store.hpp"
#include "workloads/script_program.hpp"

namespace paralog {
namespace {

using test::PlatformRunTest;

// ---------------------------------------------- VersionStore semantics

TEST(VersionStore, ProduceAvailableConsume)
{
    VersionStore vs;
    VersionTag v{2, 41};
    EXPECT_FALSE(vs.available(v));
    EXPECT_TRUE(vs.produce(v, {0xABCD, 0x1000, 8, false}));
    ASSERT_TRUE(vs.available(v));
    EXPECT_EQ(vs.size(), 1u);

    VersionStore::Versioned got = vs.consume(v);
    EXPECT_EQ(got.bits, 0xABCDu);
    EXPECT_EQ(got.addr, 0x1000u);
    EXPECT_EQ(got.size, 8u);
    EXPECT_FALSE(got.writerDone);
    EXPECT_FALSE(vs.available(v));
    EXPECT_EQ(vs.size(), 0u);
    EXPECT_EQ(vs.stats.get("produced"), 1u);
    EXPECT_EQ(vs.stats.get("consumed"), 1u);
}

TEST(VersionStore, HashCollidingTagsStayDistinct)
{
    // TagHash folds (tid << 48) ^ rid: these two tags collide exactly,
    // so correctness must come from key equality, not the hash.
    VersionStore vs;
    VersionTag a{0, 0x5};
    VersionTag b{1, 0x5ULL ^ (1ULL << 48)};
    ASSERT_EQ((static_cast<std::uint64_t>(a.tid) << 48) ^ a.rid,
              (static_cast<std::uint64_t>(b.tid) << 48) ^ b.rid);

    EXPECT_TRUE(vs.produce(a, {1, 0x10, 1, false}));
    EXPECT_TRUE(vs.produce(b, {2, 0x20, 2, false}));
    EXPECT_EQ(vs.size(), 2u);
    EXPECT_EQ(vs.consume(a).bits, 1u);
    ASSERT_TRUE(vs.available(b));
    EXPECT_EQ(vs.consume(b).bits, 2u);
    EXPECT_EQ(vs.size(), 0u);
}

TEST(VersionStore, StaleReproduceAfterConsumeIsDropped)
{
    // A second conflicting store may re-produce a tag after its reader
    // consumed it; the entry would leak (each record is visited once).
    VersionStore vs;
    VersionTag v{3, 100};
    EXPECT_TRUE(vs.produce(v, {1, 0, 1, false}));
    vs.consume(v);
    EXPECT_FALSE(vs.produce(v, {2, 0, 1, false}));
    EXPECT_EQ(vs.size(), 0u);
    EXPECT_EQ(vs.stats.get("produced_stale"), 1u);
    // Earlier rids of the same consumer thread are equally dead ...
    EXPECT_FALSE(vs.produce(VersionTag{3, 99}, {2, 0, 1, false}));
    // ... later rids and other threads are not.
    EXPECT_TRUE(vs.produce(VersionTag{3, 101}, {2, 0, 1, false}));
    EXPECT_TRUE(vs.produce(VersionTag{4, 100}, {2, 0, 1, false}));
}

TEST(VersionStore, DuplicateProduceKeepsFirstSnapshotAndBalance)
{
    // One version request per cache line of a line-crossing conflict
    // can produce the same tag twice before the consumer runs: the
    // first (closest to pre-overwrite) snapshot wins, and 'produced'
    // must stay equal to what the single consume will balance.
    VersionStore vs;
    VersionTag v{2, 10};
    EXPECT_TRUE(vs.produce(v, {0x11, 0x100, 8, false}));
    EXPECT_FALSE(vs.produce(v, {0x22, 0x100, 8, false}));
    EXPECT_EQ(vs.stats.get("produced"), 1u);
    EXPECT_EQ(vs.stats.get("produced_duplicate"), 1u);
    EXPECT_EQ(vs.consume(v).bits, 0x11u);
    EXPECT_EQ(vs.stats.get("produced"), vs.stats.get("consumed"));
}

TEST(VersionStore, MarkWriterDoneOnlyReachesPendingEntries)
{
    VersionStore vs;
    VersionTag v{1, 7};
    vs.markWriterDone(v); // absent: no-op
    EXPECT_TRUE(vs.produce(v, {0, 0, 1, false}));
    vs.markWriterDone(v);
    EXPECT_TRUE(vs.consume(v).writerDone);
    vs.markWriterDone(v); // consumed: no-op, must not recreate
    EXPECT_EQ(vs.size(), 0u);
}

TEST(VersionStore, ForEachVisitsLiveEntries)
{
    VersionStore vs;
    EXPECT_TRUE(vs.produce(VersionTag{0, 1}, {1, 0x10, 1, false}));
    EXPECT_TRUE(vs.produce(VersionTag{1, 2}, {2, 0x20, 1, false}));
    std::size_t n = 0;
    std::uint64_t bits = 0;
    vs.forEach([&](const VersionTag &, const VersionStore::Versioned &d) {
        ++n;
        bits += d.bits;
    });
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(bits, 3u);
}

// ------------------------------------------------- progress watchdog

TEST(ProgressWatchdog, FiresOnlyAfterLimitIdlePolls)
{
    ProgressWatchdog wd(3);
    EXPECT_FALSE(wd.poll(7)); // first sighting
    EXPECT_FALSE(wd.poll(7)); // idle 1
    EXPECT_FALSE(wd.poll(7)); // idle 2
    EXPECT_TRUE(wd.poll(7));  // idle 3 = limit
    EXPECT_FALSE(wd.poll(8)); // progress resets
    EXPECT_EQ(wd.idlePolls(), 0u);
    EXPECT_FALSE(wd.poll(8));
    EXPECT_EQ(wd.idlePolls(), 1u);
}

/** Thread 0 takes the lock and exits holding it; thread 1 then spins
 *  on it forever: a genuine application deadlock no protocol can
 *  resolve, which the platform watchdog must turn into a panic. */
class DeadlockWorkload : public Workload
{
  public:
    const char *name() const override { return "deadlock"; }

    ThreadProgramPtr
    makeThread(ThreadId tid, const WorkloadEnv &env) const override
    {
        class Prog : public ScriptProgram
        {
          public:
            Prog(ThreadId tid, Addr lock) : tid_(tid), lock_(lock) {}

          protected:
            bool
            refill(ThreadContext &) override
            {
                if (emitted_)
                    return false;
                emitted_ = true;
                if (tid_ == 0) {
                    emit(Inst::lock(lock_));
                    return true; // exits still holding the lock
                }
                // Give thread 0 time to win the lock.
                for (int i = 0; i < 64; ++i)
                    emit(Inst::movImm(1, i));
                emit(Inst::lock(lock_)); // spins forever
                return true;
            }

          private:
            ThreadId tid_;
            Addr lock_;
            bool emitted_ = false;
        };
        return std::make_unique<Prog>(tid, env.lockBase);
    }
};

TEST(ProgressWatchdogDeath, StallPanicsWithDiagnosableDump)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setQuiet(true);
    PlatformConfig cfg;
    cfg.sim = SimConfig::forAppThreads(2);
    cfg.sim.mode = MonitorMode::kParallel;
    cfg.lifeguard = LifeguardKind::kAddrCheck;
    cfg.customWorkload = std::make_shared<DeadlockWorkload>();
    cfg.stallWatchdogIters = 50'000; // fire fast; default is 2M
    EXPECT_DEATH(
        {
            Platform p(cfg);
            p.run();
        },
        "watchdog state dump.*progress watchdog");
}

TEST(ProgressWatchdogDeath, TimeslicedStallPanicsToo)
{
    // The timesliced baseline runs the same serial scheduler, so the
    // same application deadlock trips the same watchdog instead of
    // grinding toward maxCycles.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setQuiet(true);
    PlatformConfig cfg;
    cfg.sim = SimConfig::forAppThreads(2);
    cfg.sim.mode = MonitorMode::kTimesliced;
    cfg.lifeguard = LifeguardKind::kAddrCheck;
    cfg.customWorkload = std::make_shared<DeadlockWorkload>();
    cfg.stallWatchdogIters = 50'000;
    EXPECT_DEATH(
        {
            Timesliced t(cfg);
            t.run();
        },
        "timesliced watchdog state dump.*timesliced progress watchdog");
}

// ------------------------------------- randomized differential matrix

struct MatrixCell
{
    LifeguardKind lifeguard;
    std::uint32_t cores;
};

std::string
cellName(const ::testing::TestParamInfo<MatrixCell> &info)
{
    return std::string(toString(info.param.lifeguard)) + "_" +
           std::to_string(info.param.cores) + "c";
}

class TsoMatrix : public PlatformRunTest,
                  public ::testing::WithParamInterface<MatrixCell>
{
};

TEST_P(TsoMatrix, TsoMatchesScAcrossWorkloadsAndSeeds)
{
    const MatrixCell cell = GetParam();
    // Small scales keep the full matrix CTest-friendly while the seeds
    // vary the interleavings (and with them the store-drain conflicts
    // that exercise the versioning protocol).
    const struct
    {
        WorkloadKind workload;
        std::uint64_t scale;
    } kWorkloads[] = {
        {WorkloadKind::kLu, 500},
        {WorkloadKind::kOcean, 400},
        {WorkloadKind::kFluidanimate, 500},
    };
    for (const auto &w : kWorkloads) {
        for (std::uint64_t seed : {1ull, 7ull}) {
            ExperimentOptions o;
            o.scale = w.scale;
            o.seed = seed;

            o.memoryModel = MemoryModel::kSC;
            RunResult sc = run(makeConfig(w.workload, cell.lifeguard,
                                          MonitorMode::kParallel,
                                          cell.cores, o));
            std::uint64_t sc_fp = lastFingerprint();
            EXPECT_EQ(sc.versionsProduced, 0u);

            o.memoryModel = MemoryModel::kTSO;
            RunResult tso = run(makeConfig(w.workload, cell.lifeguard,
                                           MonitorMode::kParallel,
                                           cell.cores, o));
            std::uint64_t tso_fp = lastFingerprint();

            EXPECT_GT(tso.totalCycles, 0u);
            EXPECT_EQ(sc_fp, tso_fp)
                << toString(w.workload) << "/"
                << toString(cell.lifeguard) << "/" << cell.cores
                << " cores/seed " << seed
                << ": TSO analysis conclusions diverged from SC";
            EXPECT_EQ(tso.versionsProduced, tso.versionsConsumed);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lifeguards, TsoMatrix,
    ::testing::Values(
        MatrixCell{LifeguardKind::kAddrCheck, 1},
        MatrixCell{LifeguardKind::kAddrCheck, 2},
        MatrixCell{LifeguardKind::kAddrCheck, 4},
        MatrixCell{LifeguardKind::kAddrCheck, 8},
        MatrixCell{LifeguardKind::kTaintCheck, 1},
        MatrixCell{LifeguardKind::kTaintCheck, 2},
        MatrixCell{LifeguardKind::kTaintCheck, 4},
        MatrixCell{LifeguardKind::kTaintCheck, 8},
        MatrixCell{LifeguardKind::kMemCheck, 1},
        MatrixCell{LifeguardKind::kMemCheck, 2},
        MatrixCell{LifeguardKind::kMemCheck, 4},
        MatrixCell{LifeguardKind::kMemCheck, 8},
        MatrixCell{LifeguardKind::kLockSet, 1},
        MatrixCell{LifeguardKind::kLockSet, 2},
        MatrixCell{LifeguardKind::kLockSet, 4},
        MatrixCell{LifeguardKind::kLockSet, 8}),
    cellName);

// ------------------------------ previously refused / grinding combos

class LiftedCombos : public PlatformRunTest
{
};

TEST_F(LiftedCombos, LockSetTsoCompletesAtScale400)
{
    // ROADMAP item: this exact combination used to deadlock (LockSet's
    // read-handler metadata writes never satisfied the version waits).
    for (std::uint32_t cores : {2u, 4u, 8u}) {
        ExperimentOptions o;
        o.scale = 400;
        o.memoryModel = MemoryModel::kTSO;
        RunResult r = run(makeConfig(WorkloadKind::kLu,
                                     LifeguardKind::kLockSet,
                                     MonitorMode::kParallel, cores, o));
        EXPECT_GT(r.totalCycles, 0u);
    }
}

TEST_F(LiftedCombos, AddrCheckTsoCompletesAtScale400)
{
    // ROADMAP item: >= 2 cores used to grind for minutes (the writer's
    // lifeguard never produced the snapshot, so consumers starved
    // until the cycle-count watchdog).
    for (std::uint32_t cores : {2u, 4u, 8u}) {
        ExperimentOptions o;
        o.scale = 400;
        o.memoryModel = MemoryModel::kTSO;
        RunResult r = run(makeConfig(WorkloadKind::kLu,
                                     LifeguardKind::kAddrCheck,
                                     MonitorMode::kParallel, cores, o));
        EXPECT_GT(r.totalCycles, 0u);
        // "Completes" means promptly: the paper-scale run is tiny, so
        // a protocol regression shows up as a cycle-count explosion
        // long before it becomes a hang.
        EXPECT_LT(r.totalCycles, 10'000'000u);
    }
}

TEST_F(LiftedCombos, LockSetTsoViolationCountMatchesSc)
{
    // The versioned (pre-overwrite) Eraser states must lead LockSet to
    // the same verdicts under TSO as under SC — here, zero races on a
    // properly locked workload (false positives are regressions too).
    ExperimentOptions sc;
    sc.scale = 2000;
    RunResult r_sc = run(makeConfig(WorkloadKind::kFluidanimate,
                                    LifeguardKind::kLockSet,
                                    MonitorMode::kParallel, 4, sc));
    ExperimentOptions tso = sc;
    tso.memoryModel = MemoryModel::kTSO;
    RunResult r_tso = run(makeConfig(WorkloadKind::kFluidanimate,
                                     LifeguardKind::kLockSet,
                                     MonitorMode::kParallel, 4, tso));
    EXPECT_EQ(r_sc.violationCount, r_tso.violationCount);
}

} // namespace
} // namespace paralog
