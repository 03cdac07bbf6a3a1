#include "core/run_stats.hpp"

namespace paralog {

// A field added to either struct must be compared below too.
static_assert(sizeof(AppThreadStats) == 10 * sizeof(std::uint64_t));
static_assert(sizeof(LifeguardThreadStats) == 8 * sizeof(std::uint64_t));

std::string
resultMismatch(ResultTier tier, const RunResult &got, const RunResult &want)
{
    std::string diff;
    // Keeps the first column that differs; false once one has.
    auto same = [&diff](const std::string &column, std::uint64_t g,
                        std::uint64_t w) {
        if (diff.empty() && g != w)
            diff = column + " = " + std::to_string(g) + ", expected " +
                   std::to_string(w);
        return diff.empty();
    };

    same("shadowFingerprint", got.shadowFingerprint, want.shadowFingerprint);
    same("violationFingerprint", got.violationFingerprint,
         want.violationFingerprint);
    same("violationCount (found-any)", got.violationCount != 0,
         want.violationCount != 0);
    if (tier == ResultTier::kAnalysis)
        return diff;

    same("versionsProduced", got.versionsProduced, want.versionsProduced);
    same("versionsConsumed", got.versionsConsumed, want.versionsConsumed);
    if (!same("lifeguard count", got.lifeguard.size(), want.lifeguard.size()))
        return diff;
    for (std::size_t i = 0; i < want.lifeguard.size(); ++i)
        same("lifeguard[" + std::to_string(i) + "].recordsProcessed",
             got.lifeguard[i].recordsProcessed,
             want.lifeguard[i].recordsProcessed);
    if (tier == ResultTier::kResults)
        return diff;

    same("totalCycles", got.totalCycles, want.totalCycles);
    same("violationCount", got.violationCount, want.violationCount);
    same("versionStallRetries", got.versionStallRetries,
         want.versionStallRetries);
    for (std::size_t i = 0; i < want.lifeguard.size(); ++i) {
        const LifeguardThreadStats &g = got.lifeguard[i];
        const LifeguardThreadStats &w = want.lifeguard[i];
        const std::string at = "lifeguard[" + std::to_string(i) + "].";
        same(at + "usefulCycles", g.usefulCycles, w.usefulCycles);
        same(at + "depStall", g.depStall, w.depStall);
        same(at + "caStall", g.caStall, w.caStall);
        same(at + "versionStall", g.versionStall, w.versionStall);
        same(at + "appStall", g.appStall, w.appStall);
        same(at + "eventsHandled", g.eventsHandled, w.eventsHandled);
        same(at + "doneAt", g.doneAt, w.doneAt);
    }
    if (!same("app count", got.app.size(), want.app.size()))
        return diff;
    for (std::size_t i = 0; i < want.app.size(); ++i) {
        const AppThreadStats &g = got.app[i];
        const AppThreadStats &w = want.app[i];
        const std::string at = "app[" + std::to_string(i) + "].";
        same(at + "execCycles", g.execCycles, w.execCycles);
        same(at + "logFullStall", g.logFullStall, w.logFullStall);
        same(at + "lockStall", g.lockStall, w.lockStall);
        same(at + "barrierStall", g.barrierStall, w.barrierStall);
        same(at + "drainStall", g.drainStall, w.drainStall);
        same(at + "caAckCycles", g.caAckCycles, w.caAckCycles);
        same(at + "storeBufStall", g.storeBufStall, w.storeBufStall);
        same(at + "retired", g.retired, w.retired);
        same(at + "programInsts", g.programInsts, w.programInsts);
        same(at + "doneAt", g.doneAt, w.doneAt);
    }
    return diff;
}

} // namespace paralog
