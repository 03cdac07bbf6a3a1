/**
 * @file
 * Failure-injection tests: disable or distort individual ParaLog
 * mechanisms and check both that the system stays sound where it must,
 * and that the mechanisms are observably load-bearing.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "harness/paralog_test.hpp"
#include "lifeguard/addrcheck.hpp"

namespace paralog {
namespace {

class FailureInjection : public test::QuietTest
{
};

TEST_F(FailureInjection, DisablingConflictAlertsSkipsBarriers)
{
    // With CA disabled the platform issues no broadcasts; with CA
    // enabled swaptions issues one per malloc/free. The barrier time
    // disappears with them — quantifying what the mechanism costs.
    ExperimentOptions on;
    on.scale = 8000;
    ExperimentOptions off = on;
    off.conflictAlerts = false;

    PlatformConfig cfg_on = makeConfig(WorkloadKind::kSwaptions,
                                       LifeguardKind::kAddrCheck,
                                       MonitorMode::kParallel, 4, on);
    Platform p_on(cfg_on);
    RunResult r_on = p_on.run();
    EXPECT_GT(p_on.caManager().issued(), 0u);

    PlatformConfig cfg_off = makeConfig(WorkloadKind::kSwaptions,
                                        LifeguardKind::kAddrCheck,
                                        MonitorMode::kParallel, 4, off);
    Platform p_off(cfg_off);
    RunResult r_off = p_off.run();
    EXPECT_EQ(p_off.caManager().issued(), 0u);

    Cycle ca_on = 0, ca_off = 0;
    for (const auto &l : r_on.lifeguard)
        ca_on += l.caStall;
    for (const auto &l : r_off.lifeguard)
        ca_off += l.caStall;
    EXPECT_GT(ca_on, 0u);
    EXPECT_EQ(ca_off, 0u);
}

TEST_F(FailureInjection, LogicalRaceInvisibleToCoherence)
{
    // The premise of section 4.3: the allocator only touches block
    // headers, so a free() and an access to the payload interior live
    // on disjoint cache lines and no coherence message links them.
    Heap heap(0x1000000, 1 << 20);
    Addr a = heap.allocate(512);
    Addr hdr = Heap::headerAddr(a);
    Addr interior = a + 256;
    EXPECT_GT(interior - hdr, 64u); // different 64-byte lines
    heap.release(a);

    // And through the memory system: thread 0 touches the header line,
    // thread 1 loads the interior — no arc is generated.
    SimConfig cfg = SimConfig::forAppThreads(2);
    MemorySystem mem(cfg, 2);
    mem.bindThread(0, 0);
    mem.bindThread(1, 1);
    mem.access(0, hdr, 8, true, AccessTag{0, 1, 0}, true);
    AccessResult r =
        mem.access(1, interior, 8, false, AccessTag{1, 1, 1}, true);
    EXPECT_TRUE(r.arcs.empty());
}

TEST_F(FailureInjection, CaOrderingKeepsAddrCheckSound)
{
    // With the full mechanism, the malloc/free-heavy workload produces
    // no false AddrCheck violations: the CA barrier orders every free's
    // metadata update against remote accesses even where no dependence
    // arc connects them.
    ExperimentOptions o;
    o.scale = 8000;
    RunResult r = runExperiment(WorkloadKind::kSwaptions,
                                LifeguardKind::kAddrCheck,
                                MonitorMode::kParallel, 4, o);
    EXPECT_EQ(r.violationCount, 0u);
}

TEST_F(FailureInjection, WatchdogCatchesRunaway)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ExperimentOptions o;
    o.scale = 8000;
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, o);
    cfg.maxCycles = 10; // absurdly small: must trip the watchdog
    EXPECT_DEATH(
        {
            Platform p(cfg);
            p.run();
        },
        "watchdog");
}

TEST_F(FailureInjection, TinyLogBufferStillCorrect)
{
    ExperimentOptions o;
    o.scale = 4000;
    o.logBufferBytes = 64; // pathological back-pressure
    RunResult r = runExperiment(WorkloadKind::kOcean,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 2, o);
    EXPECT_EQ(r.violationCount, 0u);
}

TEST_F(FailureInjection, ZeroThresholdStillCorrect)
{
    // advertiseThreshold = 0 forces constant accelerator flushing:
    // slower, but never wrong.
    ExperimentOptions o;
    o.scale = 4000;
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, o);
    cfg.sim.accel.advertiseThreshold = 0;
    Platform p(cfg);
    RunResult r = p.run();
    EXPECT_EQ(r.violationCount, 0u);
}

// ----------------------------------------- the fault-injection registry

/** Registry unit tests run with a scrubbed environment and no
 *  programmatic arms left behind. */
class FaultRegistry : public test::QuietTest
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("PARALOG_FAULT");
        ::unsetenv("PARALOG_FAIL_CELL");
        ::unsetenv("PARALOG_FAIL_LG");
        clearAllFaults();
    }
    void TearDown() override { SetUp(); }
};

TEST_F(FaultRegistry, UnarmedPointIsSilent)
{
    EXPECT_FALSE(faultValue("cell.fail").has_value());
    EXPECT_FALSE(faultHits("cell.fail", 0));
}

TEST_F(FaultRegistry, ProgrammaticArmAndClear)
{
    armFault("daemon.stall-worker", 25);
    ASSERT_TRUE(faultValue("daemon.stall-worker").has_value());
    EXPECT_EQ(*faultValue("daemon.stall-worker"), 25u);
    EXPECT_TRUE(faultHits("daemon.stall-worker", 25));
    EXPECT_FALSE(faultHits("daemon.stall-worker", 24));
    clearFault("daemon.stall-worker");
    EXPECT_FALSE(faultValue("daemon.stall-worker").has_value());
}

TEST_F(FaultRegistry, EnvSpecParsesEntriesAndBareNames)
{
    ::setenv("PARALOG_FAULT", "cell.fail=3;daemon.stall-worker=50,job.fail",
             1);
    EXPECT_EQ(*faultValue("cell.fail"), 3u);
    EXPECT_EQ(*faultValue("daemon.stall-worker"), 50u);
    EXPECT_EQ(*faultValue("job.fail"), 0u); // bare name arms with 0
    EXPECT_FALSE(faultValue("lg.fail").has_value());
}

TEST_F(FaultRegistry, RetiredAliasVariablesArmNothing)
{
    // PARALOG_FAULT is the only environment spelling; the old per-point
    // variables are not read.
    ::setenv("PARALOG_FAIL_CELL", "2", 1);
    ::setenv("PARALOG_FAIL_LG", "1", 1);
    EXPECT_FALSE(faultValue("cell.fail").has_value());
    EXPECT_FALSE(faultValue("lg.fail").has_value());
}

TEST_F(FaultRegistry, ProgrammaticArmWinsOverEnvSpec)
{
    ::setenv("PARALOG_FAULT", "cell.fail=5", 1);
    EXPECT_EQ(*faultValue("cell.fail"), 5u);
    armFault("cell.fail", 9);
    EXPECT_EQ(*faultValue("cell.fail"), 9u);
}

TEST_F(FaultRegistry, ArmedCellFailIsContainedByRunMatrix)
{
    // The registry path end-to-end: arm cell.fail programmatically (no
    // environment involved) and watch the matrix contain exactly that
    // cell.
    armFault("cell.fail", 0);
    std::vector<RunSpec> specs(2);
    for (RunSpec &s : specs) {
        s.workload = WorkloadKind::kLu;
        s.lifeguard = LifeguardKind::kTaintCheck;
        s.mode = MonitorMode::kParallel;
        s.cores = 2;
        s.opt = opts(2000);
    }
    std::vector<CellResult> cells = runMatrix(specs, 1);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_TRUE(cells[0].failed);
    EXPECT_NE(cells[0].error.find("injected failure"),
              std::string::npos);
    EXPECT_FALSE(cells[1].failed);
}

TEST_F(FailureInjection, OneEntryStoreBufferStillCorrectUnderTso)
{
    ExperimentOptions o;
    o.scale = 4000;
    o.memoryModel = MemoryModel::kTSO;
    PlatformConfig cfg = makeConfig(WorkloadKind::kOcean,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, o);
    cfg.sim.storeBufferEntries = 1;
    Platform p(cfg);
    RunResult r = p.run();
    EXPECT_EQ(r.violationCount, 0u);
}

} // namespace
} // namespace paralog
