/**
 * @file
 * Shared test harness: the quiet-logging fixtures, ExperimentOptions /
 * PlatformConfig shorthands, and the shadow-memory fingerprint used by
 * the cross-configuration equivalence suites. Every integration suite
 * was repeating these; new suites should start from here.
 */

#ifndef PARALOG_TESTS_HARNESS_PARALOG_TEST_HPP
#define PARALOG_TESTS_HARNESS_PARALOG_TEST_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "lifeguard/shadow_memory.hpp"

namespace paralog::test {

/** ExperimentOptions with just the scale set — the common case. */
inline ExperimentOptions
makeOptions(std::uint64_t scale = 8000)
{
    ExperimentOptions o;
    o.scale = scale;
    return o;
}

/** makeConfig() shorthand taking a bare scale instead of options. */
inline PlatformConfig
makeScaledConfig(WorkloadKind workload, LifeguardKind lifeguard,
                 MonitorMode mode, std::uint32_t threads,
                 std::uint64_t scale = 8000)
{
    return makeConfig(workload, lifeguard, mode, threads,
                      makeOptions(scale));
}

/**
 * FNV-1a-style hash of the shadow metadata over [base, base + bytes),
 * from the project's basis (kFnvBasis): the
 * canonical "did two configurations reach the same analysis
 * conclusions?" fingerprint. Works for any lifeguard via
 * Lifeguard::shadow(). (Now shared with the src tree — the trace
 * record/replay self-check uses the same hash.)
 */
using paralog::shadowFingerprint;

/** Base fixture: silences warn()/inform() for the whole suite. */
class QuietTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }

    static ExperimentOptions
    opts(std::uint64_t scale = 8000)
    {
        return makeOptions(scale);
    }
};

/**
 * Fixture for full platform runs: every Platform executed through
 * run() is re-checked at fixture teardown for TSO versioning-protocol
 * leaks — all produced snapshots consumed and the VersionStore empty.
 * (Trivially true under SC; load-bearing for every TSO suite.)
 */
class PlatformRunTest : public QuietTest
{
  protected:
    /** Run @p cfg to completion on an owned Platform. The platform
     *  stays alive (inspect shadow state) until the test ends. */
    RunResult
    run(PlatformConfig cfg)
    {
        platforms_.push_back(
            std::make_unique<Platform>(std::move(cfg)));
        return platforms_.back()->run();
    }

    Platform &lastPlatform() { return *platforms_.back(); }

    /** Fingerprint of the analysis conclusions of the last run:
     *  heap-arena + global-segment shadow state. */
    std::uint64_t
    lastFingerprint()
    {
        return heapGlobalsFingerprint(lastPlatform().lifeguard().shadow());
    }

    void
    TearDown() override
    {
        for (const auto &p : platforms_) {
            EXPECT_EQ(p->versions().size(), 0u)
                << "leaked TSO version snapshots";
            EXPECT_EQ(p->versions().stats.get("produced"),
                      p->versions().stats.get("consumed"))
                << "produced snapshots never consumed";
        }
        platforms_.clear();
    }

  private:
    std::vector<std::unique_ptr<Platform>> platforms_;
};

/** Parameterized variant of QuietTest. */
template <typename Param>
class QuietTestWithParam : public ::testing::TestWithParam<Param>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }

    static ExperimentOptions
    opts(std::uint64_t scale = 8000)
    {
        return makeOptions(scale);
    }
};

} // namespace paralog::test

#endif // PARALOG_TESTS_HARNESS_PARALOG_TEST_HPP
