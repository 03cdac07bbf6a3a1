/**
 * @file
 * Per-run statistics: the time breakdown reported in Figure 7 (useful
 * work / waiting for dependence / waiting for the application) plus
 * application-side stall accounting.
 */

#ifndef PARALOG_CORE_RUN_STATS_HPP
#define PARALOG_CORE_RUN_STATS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace paralog {

struct AppThreadStats
{
    Cycle execCycles = 0;        ///< busy executing instructions
    Cycle logFullStall = 0;      ///< log buffer full
    Cycle lockStall = 0;         ///< spinning on application locks
    Cycle barrierStall = 0;      ///< waiting at application barriers
    Cycle drainStall = 0;        ///< damage containment before syscalls
    Cycle caAckCycles = 0;       ///< ConflictAlert serialization
    Cycle storeBufStall = 0;     ///< TSO store buffer full
    std::uint64_t retired = 0;   ///< retired micro-ops
    std::uint64_t programInsts = 0;
    Cycle doneAt = 0;            ///< cycle the thread exited
};

struct LifeguardThreadStats
{
    Cycle usefulCycles = 0;   ///< running handlers (Figure 7 "useful")
    Cycle depStall = 0;       ///< "waiting for dependence"
    Cycle caStall = 0;        ///< ConflictAlert barrier waits
    Cycle versionStall = 0;   ///< TSO version waits
    Cycle appStall = 0;       ///< "waiting for application" (empty log)
    std::uint64_t recordsProcessed = 0;
    std::uint64_t eventsHandled = 0; ///< post-accelerator deliveries
    Cycle doneAt = 0;

    Cycle
    depStallTotal() const
    {
        return depStall + caStall + versionStall;
    }
};

struct RunResult
{
    Cycle totalCycles = 0;
    std::vector<AppThreadStats> app;
    std::vector<LifeguardThreadStats> lifeguard;
    std::uint64_t violationCount = 0;

    // TSO versioning protocol counters (zero under SC): snapshots
    // produced / consumed through the VersionStore and the number of
    // delivery retries spent waiting for a version. A hang diagnosis
    // starts here: produced != consumed means a leaked snapshot,
    // exploding version_stalls means a starved consumer.
    std::uint64_t versionsProduced = 0;
    std::uint64_t versionsConsumed = 0;
    std::uint64_t versionStallRetries = 0;

    /// Shadow-metadata fingerprint (heap + global segments), filled by
    /// runs that compute it (trace record/replay); 0 otherwise. Not a
    /// CSV stat column — the legacy schema stays frozen.
    std::uint64_t shadowFingerprint = 0;

    /// Hash of the set of *distinct* (kind, tid, addr) violations
    /// (ViolationLog::setFingerprint). Unlike violationCount it holds
    /// in every ResultTier.
    std::uint64_t violationFingerprint = 0;

    Cycle
    appExecTotal() const
    {
        Cycle sum = 0;
        for (const auto &a : app)
            sum += a.execCycles;
        return sum;
    }

    std::uint64_t
    retiredTotal() const
    {
        std::uint64_t sum = 0;
        for (const auto &a : app)
            sum += a.retired;
        return sum;
    }

    std::uint64_t
    eventsHandledTotal() const
    {
        std::uint64_t sum = 0;
        for (const auto &l : lifeguard)
            sum += l.eventsHandled;
        return sum;
    }
};

/**
 * Which RunResult columns two runs of the same recording or program
 * must agree on. Each engine guarantees one tier, and resultMismatch()
 * is the one place that says which columns a tier compares.
 *
 * - kAnalysis: the shadow fingerprint, the distinct-violation
 *   fingerprint, and found-any (whether both sides found at least one
 *   violation). A live `--lg-threads` run guarantees this tier against
 *   a serial live run.
 * - kResults: kAnalysis, plus versions produced and consumed, the
 *   lifeguard count, and per-lifeguard records processed. Concurrent
 *   replay guarantees this tier against the recorded footer.
 * - kExact: every RunResult field. Serial replay guarantees this tier
 *   against the footer; it also holds between a recording and its
 *   replay, between v1 and v2 twins, and across repeated runs.
 *
 * Why each tier leaves columns out:
 * - Violation *report* counts (beyond found-any) are outside kResults:
 *   the Idempotent Filters absorb duplicate reports, and how many they
 *   absorb depends on stall-flush timing. A first occurrence is never
 *   absorbed, so found-any and the distinct set still hold.
 * - Record and version counts are outside kAnalysis: the live parallel
 *   application waits for publication, not for consumption, so its
 *   interleaving differs from the serial application's. Replay has no
 *   application, so kResults keeps them.
 * - Cycle counts, stall breakdowns, events handled and version-stall
 *   retries are kExact only: there is no global clock across host
 *   threads.
 */
enum class ResultTier { kAnalysis, kResults, kExact };

/** "" when @p got agrees with @p want on every column of @p tier,
 *  else the first column that differs, as "<column> = X, expected Y". */
std::string resultMismatch(ResultTier tier, const RunResult &got,
                           const RunResult &want);

} // namespace paralog

#endif // PARALOG_CORE_RUN_STATS_HPP
