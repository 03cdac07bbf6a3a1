/**
 * @file
 * Shared helpers for the figure-reproduction benches: runs experiment
 * grids and prints the paper's rows/series. Scale with PARALOG_SCALE
 * (total application work units; default 60000), or pass --smoke for a
 * seconds-long short-iteration run (used by the CTest tier2 smoke
 * tests, which execute every bench binary rather than just building it).
 */

#ifndef PARALOG_BENCH_FIG_COMMON_HPP
#define PARALOG_BENCH_FIG_COMMON_HPP

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/logging.hpp"
#include "core/experiment.hpp"

namespace paralog_bench {

using namespace paralog;

/// Set by initBench() when --smoke is passed: shrink every grid to a
/// short-iteration run that still exercises the full code path.
inline bool gSmoke = false;

/** Common bench entry: silence the simulator, detect --smoke. */
inline void
initBench(int argc, char **argv)
{
    setQuiet(true);
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--smoke") {
            gSmoke = true;
        } else {
            // Fail fast: a typo'd --smoke silently running the
            // full-scale grid costs minutes, not an error message.
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (only --smoke is "
                         "accepted; scale with PARALOG_SCALE)\n",
                         argv[0], argv[i]);
            std::exit(2);
        }
    }
    if (gSmoke)
        std::printf("[--smoke: short-iteration run, numbers are not "
                    "representative]\n");
}

/** Bench scale: PARALOG_SCALE wins, then smoke-mode shrink. */
inline std::uint64_t
benchScale(std::uint64_t fallback)
{
    return ExperimentOptions::envScale(gSmoke ? 1500 : fallback);
}

/** Fixed thread count for single-point benches (smoke shrinks it). */
inline std::uint32_t
benchThreads(std::uint32_t normal)
{
    return gSmoke ? std::min(normal, 2u) : normal;
}

/** Thread-count series for the figure grids. */
inline const std::vector<std::uint32_t> &
threadCounts()
{
    static const std::vector<std::uint32_t> full{1, 2, 4, 8};
    static const std::vector<std::uint32_t> smoke{1, 2};
    return gSmoke ? smoke : full;
}

inline ExperimentOptions
defaultOptions()
{
    ExperimentOptions opt;
    opt.scale = benchScale(60000);
    return opt;
}

/** Geometric-mean helper for "on average" claims. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/**
 * Figure 6 for one lifeguard: normalized execution time of
 * NO MONITORING / TIMESLICED / PARALLEL for 1-8 application threads,
 * normalized to the 1-thread unmonitored run of each benchmark.
 */
inline void
runFig6(LifeguardKind lg)
{
    setQuiet(true);
    ExperimentOptions opt = defaultOptions();
    std::printf("=== Figure 6 (%s): normalized execution time ===\n",
                toString(lg));
    std::printf("(normalized to 1-thread NO MONITORING per benchmark; "
                "scale=%llu)\n\n",
                static_cast<unsigned long long>(opt.scale));
    std::printf("%-11s %3s  %8s %11s %9s  %s\n", "benchmark", "thr",
                "no-mon", "timesliced", "parallel",
                "parallel-vs-timesliced speedup");

    const std::uint32_t max_thr = threadCounts().back();
    std::vector<double> speedups2, speedups_max;
    for (WorkloadKind w : allWorkloads()) {
        double base1 = 0.0;
        for (std::uint32_t threads : threadCounts()) {
            RunResult none = runExperiment(
                w, lg, MonitorMode::kNoMonitoring, threads, opt);
            RunResult ts = runExperiment(
                w, lg, MonitorMode::kTimesliced, threads, opt);
            RunResult par = runExperiment(
                w, lg, MonitorMode::kParallel, threads, opt);
            if (threads == 1)
                base1 = static_cast<double>(none.totalCycles);
            double n = none.totalCycles / base1;
            double t = ts.totalCycles / base1;
            double p = par.totalCycles / base1;
            double speedup = static_cast<double>(ts.totalCycles) /
                             static_cast<double>(par.totalCycles);
            std::printf("%-11s %3u  %8.3f %11.3f %9.3f  %6.2fx\n",
                        toString(w), threads, n, t, p, speedup);
            if (threads == 2)
                speedups2.push_back(speedup);
            if (threads == max_thr)
                speedups_max.push_back(speedup);
        }
    }
    std::printf("\nparallel-vs-timesliced speedup: geomean %.1fx at 2 "
                "threads, %.1fx at %u threads\n",
                geomean(speedups2), geomean(speedups_max), max_thr);
    std::printf("(paper: TaintCheck 1.5-4.1x @2t, 5.3-85x @8t; AddrCheck "
                "1.4-3.1x @2t, 5.7-126x @8t)\n");
}

/**
 * Figure 7 for one lifeguard: slowdown of PARALLEL monitoring versus
 * the same-thread-count unmonitored run, broken into useful work /
 * waiting-for-dependence / waiting-for-application.
 */
inline void
runFig7(LifeguardKind lg)
{
    setQuiet(true);
    ExperimentOptions opt = defaultOptions();
    std::printf("=== Figure 7 (%s): slowdown breakdown ===\n",
                toString(lg));
    std::printf("(slowdown vs same-thread-count NO MONITORING; lifeguard "
                "time split, scale=%llu)\n\n",
                static_cast<unsigned long long>(opt.scale));
    std::printf("%-11s %3s %9s  %7s %7s %7s\n", "benchmark", "thr",
                "slowdown", "useful", "dep", "app");

    const std::uint32_t max_thr = threadCounts().back();
    std::vector<double> slowdown_max;
    for (WorkloadKind w : allWorkloads()) {
        for (std::uint32_t threads : threadCounts()) {
            RunResult none = runExperiment(
                w, lg, MonitorMode::kNoMonitoring, threads, opt);
            RunResult par = runExperiment(
                w, lg, MonitorMode::kParallel, threads, opt);
            double slowdown = static_cast<double>(par.totalCycles) /
                              static_cast<double>(none.totalCycles);
            Cycle useful = 0, dep = 0, app = 0;
            for (const auto &l : par.lifeguard) {
                useful += l.usefulCycles;
                dep += l.depStallTotal();
                app += l.appStall;
            }
            double tot = static_cast<double>(useful + dep + app);
            if (tot == 0)
                tot = 1;
            std::printf("%-11s %3u %8.2fx  %6.1f%% %6.1f%% %6.1f%%\n",
                        toString(w), threads, slowdown,
                        100.0 * useful / tot, 100.0 * dep / tot,
                        100.0 * app / tot);
            if (threads == max_thr)
                slowdown_max.push_back(slowdown);
        }
    }
    std::printf("\naverage %u-thread overhead: %.0f%%\n", max_thr,
                100.0 * (geomean(slowdown_max) - 1.0));
    std::printf("(paper: 51%% TaintCheck, 28%% AddrCheck at 8 threads)\n");
}

} // namespace paralog_bench

#endif // PARALOG_BENCH_FIG_COMMON_HPP
