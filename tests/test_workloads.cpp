/**
 * @file
 * Parameterized workload tests: every benchmark must run to completion
 * under every lifeguard and thread count, deterministically, without
 * emitting internal micro-ops from programs.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/experiment.hpp"

namespace paralog {
namespace {

using GridParam = std::tuple<WorkloadKind, std::uint32_t>;

class WorkloadGrid : public ::testing::TestWithParam<GridParam>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }
};

TEST_P(WorkloadGrid, RunsUnmonitored)
{
    auto [w, threads] = GetParam();
    ExperimentOptions o;
    o.scale = 6000;
    RunResult r = runExperiment(w, LifeguardKind::kTaintCheck,
                                MonitorMode::kNoMonitoring, threads, o);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.retiredTotal(), 500u);
}

TEST_P(WorkloadGrid, RunsUnderTaintCheck)
{
    auto [w, threads] = GetParam();
    ExperimentOptions o;
    o.scale = 6000;
    RunResult r = runExperiment(w, LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, threads, o);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.violationCount, 0u) << "unexpected taint violation";
}

TEST_P(WorkloadGrid, RunsUnderAddrCheck)
{
    auto [w, threads] = GetParam();
    ExperimentOptions o;
    o.scale = 6000;
    RunResult r = runExperiment(w, LifeguardKind::kAddrCheck,
                                MonitorMode::kParallel, threads, o);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.violationCount, 0u) << "unexpected AddrCheck violation";
}

TEST_P(WorkloadGrid, StrongScalingHoldsWorkConstant)
{
    auto [w, threads] = GetParam();
    if (threads == 1)
        GTEST_SUCCEED();
    ExperimentOptions o;
    o.scale = 6000;
    RunResult r1 = runExperiment(w, LifeguardKind::kTaintCheck,
                                 MonitorMode::kNoMonitoring, 1, o);
    RunResult rk = runExperiment(w, LifeguardKind::kTaintCheck,
                                 MonitorMode::kNoMonitoring, threads, o);
    // Total retired work should be within 2.5x across thread counts
    // (wrapper/synchronization overhead may add instructions).
    double ratio = static_cast<double>(rk.retiredTotal()) /
                   static_cast<double>(r1.retiredTotal());
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadGrid,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        std::string name = toString(std::get<0>(info.param));
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(WorkloadRegistry, AllKindsConstruct)
{
    for (WorkloadKind w : allWorkloads()) {
        auto wl = makeWorkload(w);
        ASSERT_NE(wl, nullptr);
        EXPECT_NE(wl->name(), nullptr);
        WorkloadEnv env;
        env.numThreads = 2;
        env.scale = 100;
        env.globalBase = 0x100000;
        env.lockBase = 0x200000;
        env.barrierBase = 0x210000;
        env.heapBase = 0x400000;
        env.heapBytes = 1 << 20;
        auto prog = wl->makeThread(0, env);
        EXPECT_NE(prog, nullptr);
    }
}

TEST(WorkloadRegistry, EightBenchmarks)
{
    EXPECT_EQ(allWorkloads().size(), 8u);
}

TEST(WorkloadRegistry, ProgramsEmitNoInternalOps)
{
    WorkloadEnv env;
    env.numThreads = 1;
    env.scale = 2000;
    env.globalBase = 0x100000;
    env.lockBase = 0x200000;
    env.barrierBase = 0x210000;
    env.heapBase = 0x400000;
    env.heapBytes = 1 << 20;
    for (WorkloadKind w : allWorkloads()) {
        auto wl = makeWorkload(w);
        auto prog = wl->makeThread(0, env);
        ThreadContext tc(0, nullptr);
        // Drive the generator directly (without executing) for a while,
        // through take() as ThreadContext::fetch does; register-dependent
        // generators just see zeros, which is fine for this structural
        // check.
        std::vector<Inst> buf;
        while (buf.size() < 500) {
            if (prog->take(buf, tc) == 0)
                break;
        }
        EXPECT_FALSE(buf.empty()) << toString(w);
        for (const Inst &inst : buf)
            EXPECT_FALSE(isInternalOp(inst.op)) << toString(w);
    }
}

} // namespace
} // namespace paralog
