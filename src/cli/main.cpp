/**
 * @file
 * The `paralog` scenario-matrix driver: expands the cross product of
 * the requested (workload x lifeguard x mode x cores x seed) scenarios
 * into a work queue, executes it on `--jobs` host threads through
 * runMatrix() (each cell owns its Platform, so results are identical
 * for any job count), aggregates `--repeat` runs per cell, and reports
 * per-cell statistics as human-readable text, CSV or JSON. Every flag
 * combination the paper evaluates (Figures 6-8, Table 1) is reachable
 * from here.
 *
 * A cell whose run panics is marked failed in every output format and
 * the driver exits 1; the rest of the matrix still runs.
 */

#include <csignal>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "daemon/client.hpp"
#include "trace/migrate.hpp"
#include "trace/trace_reader.hpp"

namespace paralog::cli {
namespace {

// ------------------------------------------------- interrupt handling
//
// First Ctrl-C: finish the cells already running, emit the partial
// output with an `interrupted` marker, exit 130. Second Ctrl-C: the
// user means it — hard exit.

std::atomic<bool> g_interrupted{false};
std::atomic<int> g_sigint_count{0};

extern "C" void
onInterrupt(int)
{
    if (g_sigint_count.fetch_add(1, std::memory_order_relaxed) >= 1)
        ::_exit(130);
    g_interrupted.store(true, std::memory_order_relaxed);
}

void
installInterruptHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = onInterrupt;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
}

/** Lifeguard column label; baseline runs attach no lifeguard. */
const char *
lifeguardLabel(const Scenario &s)
{
    return s.mode == MonitorMode::kNoMonitoring ? "-"
                                                : flagName(s.lifeguard);
}

/**
 * --replay: the scenario and platform axes come from the recording's
 * header; only the lifeguard list survives (when given, each listed
 * lifeguard re-monitors the recording as its own cell). The rewritten
 * options drive the normal matrix machinery — and the output rows and
 * `options` blocks describe the recorded configuration.
 */
bool
applyReplayHeader(CliOptions &opt, std::string &err)
{
    paralog::trace::TraceReader reader(opt.replayPath);
    if (!reader.ok()) {
        err = reader.error();
        return false;
    }
    const paralog::trace::TraceConfig &tc = reader.config();
    opt.workloads = {tc.workload};
    if (!(opt.setFlags & kSetLifeguard))
        opt.lifeguards = {tc.lifeguard};
    opt.modes = {MonitorMode::kParallel};
    opt.cores = {tc.appThreads};
    opt.seeds = {tc.seed};
    opt.scale = tc.scale;
    opt.memoryModel = tc.memoryModel;
    opt.depTracking = tc.depTracking;
    opt.conflictAlerts = tc.conflictAlerts;
    opt.accelerators = tc.accelIT && tc.accelIF && tc.accelMTLB;
    opt.logBufferBytes = tc.logBufferBytes;
    return true;
}

// ------------------------------------------------------------- stats

/// The per-cell statistics reported by CSV and JSON, in column order.
/// One table drives both formats, so `--json` values always round-trip
/// against `--csv` columns.
constexpr std::size_t kNumStats = 12;
constexpr const char *kStatNames[kNumStats] = {
    "total_cycles",   "app_exec_cycles",  "retired",
    "records_processed", "events_handled", "lg_useful_cycles",
    "lg_dep_stall",   "lg_app_stall",     "violations",
    "versions_produced", "versions_consumed", "version_stalls",
};

std::array<std::uint64_t, kNumStats>
statVec(const RunResult &r)
{
    std::uint64_t records = 0, useful = 0, dep = 0, app_stall = 0;
    for (const auto &l : r.lifeguard) {
        records += l.recordsProcessed;
        useful += l.usefulCycles;
        dep += l.depStallTotal();
        app_stall += l.appStall;
    }
    return {r.totalCycles,      r.appExecTotal(),    r.retiredTotal(),
            records,            r.eventsHandledTotal(), useful,
            dep,                app_stall,           r.violationCount,
            r.versionsProduced, r.versionsConsumed,  r.versionStallRetries};
}

/**
 * One output cell: a (scenario, seed) pair with its `--repeat` run
 * results. Aggregation is order-invariant (SampleSummary sorts), and a
 * cell counts as failed as soon as any repeat failed.
 */
struct Cell
{
    Scenario scenario;
    std::uint64_t seed = 1;
    std::vector<CellResult> repeats;

    bool
    failed() const
    {
        for (const CellResult &r : repeats) {
            if (r.failed)
                return true;
        }
        return false;
    }

    /** True when any repeat never ran (matrix interrupted). */
    bool
    skipped() const
    {
        for (const CellResult &r : repeats) {
            if (r.skipped)
                return true;
        }
        return false;
    }

    const std::string &
    firstError() const
    {
        static const std::string none;
        for (const CellResult &r : repeats) {
            if (r.failed)
                return r.error;
        }
        return none;
    }

    std::array<SampleSummary, kNumStats>
    aggregate() const
    {
        std::array<SampleSummary, kNumStats> agg;
        for (const CellResult &r : repeats) {
            if (r.failed)
                continue;
            std::array<std::uint64_t, kNumStats> v = statVec(r.result);
            for (std::size_t i = 0; i < kNumStats; ++i)
                agg[i].add(v[i]);
        }
        return agg;
    }

    WallClockSummary
    wall() const
    {
        WallClockSummary w;
        for (const CellResult &r : repeats)
            w.add(r.wallMs);
        return w;
    }
};

// --------------------------------------------------------------- CSV

void
printCsvHeader(const CliOptions &opt)
{
    std::printf("workload,lifeguard,mode,cores,accel,dep_tracking,"
                "memory_model,scale");
    for (const char *name : kStatNames)
        std::printf(",%s", name);
    if (opt.sweepColumns())
        std::printf(",seed,repeats");
    std::printf("\n");
}

/** CSV-quote a failure message (commas/quotes legal, newlines not). */
std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else if (c == '\n' || c == '\r')
            out += ' ';
        else
            out += c;
    }
    out += '"';
    return out;
}

void
printCsvRow(const CliOptions &opt, const Cell &cell)
{
    std::printf("%s,%s,%s,%u,%s,%s,%s,%llu",
                flagName(cell.scenario.workload), lifeguardLabel(cell.scenario),
                flagName(cell.scenario.mode), cell.scenario.cores,
                opt.accelerators ? "on" : "off",
                flagName(opt.depTracking), flagName(opt.memoryModel),
                static_cast<unsigned long long>(opt.scale));
    if (cell.failed()) {
        std::printf(",%s",
                    csvQuote("failed: " + cell.firstError()).c_str());
    } else {
        std::array<SampleSummary, kNumStats> agg = cell.aggregate();
        for (const SampleSummary &s : agg)
            std::printf(",%llu",
                        static_cast<unsigned long long>(s.median()));
    }
    if (opt.sweepColumns())
        std::printf(",%llu,%zu",
                    static_cast<unsigned long long>(cell.seed),
                    cell.repeats.size());
    std::printf("\n");
}

// -------------------------------------------------------------- JSON

void
printJsonHeader(const CliOptions &opt)
{
    std::printf("{\n");
    std::printf("  \"schema\": \"paralog-matrix-v1\",\n");
    if (!opt.replayPath.empty())
        std::printf("  \"replay\": \"%s\",\n",
                    jsonEscape(opt.replayPath).c_str());
    if (!opt.recordPath.empty())
        std::printf("  \"record\": \"%s\",\n",
                    jsonEscape(opt.recordPath).c_str());
    std::printf("  \"jobs\": %u,\n", opt.jobs);
    std::printf("  \"repeat\": %u,\n", opt.repeat);
    std::printf("  \"seeds\": [");
    for (std::size_t i = 0; i < opt.seeds.size(); ++i)
        std::printf("%s%llu", i ? ", " : "",
                    static_cast<unsigned long long>(opt.seeds[i]));
    std::printf("],\n");
    std::printf("  \"options\": {\"scale\": %llu, \"accel\": \"%s\", "
                "\"dep_tracking\": \"%s\", \"memory_model\": \"%s\", "
                "\"conflict_alerts\": \"%s\", \"log_buffer\": %llu, "
                "\"max_cycles\": %llu},\n",
                static_cast<unsigned long long>(opt.scale),
                opt.accelerators ? "on" : "off", flagName(opt.depTracking),
                flagName(opt.memoryModel),
                opt.conflictAlerts ? "on" : "off",
                static_cast<unsigned long long>(opt.logBufferBytes),
                static_cast<unsigned long long>(opt.maxCycles));
    std::printf("  \"cells\": [");
}

void
printJsonCell(const Cell &cell, bool first)
{
    std::printf("%s\n    {\n", first ? "" : ",");
    std::printf("      \"workload\": \"%s\",\n",
                flagName(cell.scenario.workload));
    std::printf("      \"lifeguard\": \"%s\",\n",
                lifeguardLabel(cell.scenario));
    std::printf("      \"mode\": \"%s\",\n", flagName(cell.scenario.mode));
    std::printf("      \"cores\": %u,\n", cell.scenario.cores);
    std::printf("      \"seed\": %llu,\n",
                static_cast<unsigned long long>(cell.seed));
    std::printf("      \"repeats\": %zu,\n", cell.repeats.size());
    if (cell.failed()) {
        std::printf("      \"status\": \"failed\",\n");
        std::printf("      \"error\": \"%s\",\n",
                    jsonEscape(cell.firstError()).c_str());
    } else {
        std::printf("      \"status\": \"ok\",\n");
        std::uint64_t fp = cell.repeats.front().result.shadowFingerprint;
        if (fp != 0)
            std::printf("      \"fingerprint\": \"0x%016llx\",\n",
                        static_cast<unsigned long long>(fp));
        std::printf("      \"stats\": {\n");
        std::array<SampleSummary, kNumStats> agg = cell.aggregate();
        for (std::size_t i = 0; i < kNumStats; ++i) {
            std::printf("        \"%s\": {\"min\": %llu, \"median\": "
                        "%llu, \"max\": %llu}%s\n",
                        kStatNames[i],
                        static_cast<unsigned long long>(agg[i].min()),
                        static_cast<unsigned long long>(agg[i].median()),
                        static_cast<unsigned long long>(agg[i].max()),
                        i + 1 < kNumStats ? "," : "");
        }
        std::printf("      },\n");
    }
    WallClockSummary w = cell.wall();
    std::printf("      \"wall_ms\": {\"min\": %.3f, \"median\": %.3f, "
                "\"max\": %.3f}\n",
                w.min(), w.median(), w.max());
    std::printf("    }");
}

void
printJsonFooter(std::size_t cells, std::size_t failed,
                std::size_t skipped, bool interrupted)
{
    std::printf("\n  ],\n");
    std::printf("  \"cells_total\": %zu,\n", cells);
    std::printf("  \"cells_failed\": %zu,\n", failed);
    std::printf("  \"cells_skipped\": %zu,\n", skipped);
    std::printf("  \"interrupted\": %s\n", interrupted ? "true" : "false");
    std::printf("}\n");
}

// -------------------------------------------------------------- text

void
printTextRow(const CliOptions &opt, const Cell &cell)
{
    std::printf("=== %s / %s / %s / %u app thread%s",
                flagName(cell.scenario.workload), lifeguardLabel(cell.scenario),
                flagName(cell.scenario.mode), cell.scenario.cores,
                cell.scenario.cores == 1 ? "" : "s");
    if (opt.seeds.size() > 1)
        std::printf(" / seed %llu",
                    static_cast<unsigned long long>(cell.seed));
    std::printf(" ===\n");

    if (cell.failed()) {
        std::printf("  FAILED: %s\n\n", cell.firstError().c_str());
        return;
    }

    // Repeats of one cell are deterministic, so the per-thread detail
    // below comes from the first run; the aggregate line reports the
    // (min/median/max) spread as proof.
    const RunResult &r = cell.repeats.front().result;
    std::printf("  total cycles:      %llu\n",
                static_cast<unsigned long long>(r.totalCycles));
    std::printf("  retired micro-ops: %llu\n",
                static_cast<unsigned long long>(r.retiredTotal()));

    Cycle log_full = 0, lock_stall = 0, barrier_stall = 0;
    for (const auto &a : r.app) {
        log_full += a.logFullStall;
        lock_stall += a.lockStall;
        barrier_stall += a.barrierStall;
    }
    std::printf("  app stalls:        log-full %llu, lock %llu, "
                "barrier %llu\n",
                static_cast<unsigned long long>(log_full),
                static_cast<unsigned long long>(lock_stall),
                static_cast<unsigned long long>(barrier_stall));

    if (!r.lifeguard.empty()) {
        std::uint64_t records = 0;
        Cycle useful = 0, dep = 0, app_stall = 0;
        for (const auto &l : r.lifeguard) {
            records += l.recordsProcessed;
            useful += l.usefulCycles;
            dep += l.depStallTotal();
            app_stall += l.appStall;
        }
        double tot = static_cast<double>(useful + dep + app_stall);
        if (tot == 0)
            tot = 1;
        std::printf("  records processed: %llu (%llu events after "
                    "accelerators)\n",
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(
                        r.eventsHandledTotal()));
        std::printf("  lifeguard time:    %.1f%% useful, %.1f%% "
                    "dependence stall, %.1f%% waiting for app\n",
                    100.0 * static_cast<double>(useful) / tot,
                    100.0 * static_cast<double>(dep) / tot,
                    100.0 * static_cast<double>(app_stall) / tot);
    }
    if (opt.memoryModel == MemoryModel::kTSO && !r.lifeguard.empty()) {
        std::printf("  versions:          produced %llu, consumed %llu, "
                    "stall retries %llu\n",
                    static_cast<unsigned long long>(r.versionsProduced),
                    static_cast<unsigned long long>(r.versionsConsumed),
                    static_cast<unsigned long long>(
                        r.versionStallRetries));
    }
    std::printf("  violations:        %llu\n",
                static_cast<unsigned long long>(r.violationCount));
    if (r.shadowFingerprint != 0)
        std::printf("  shadow fingerprint: 0x%016llx\n",
                    static_cast<unsigned long long>(
                        r.shadowFingerprint));
    if (cell.repeats.size() > 1) {
        std::array<SampleSummary, kNumStats> agg = cell.aggregate();
        std::printf("  repeats:           %zu (total cycles "
                    "min/median/max %llu/%llu/%llu)\n",
                    cell.repeats.size(),
                    static_cast<unsigned long long>(agg[0].min()),
                    static_cast<unsigned long long>(agg[0].median()),
                    static_cast<unsigned long long>(agg[0].max()));
    }
    if (opt.describe) {
        ExperimentOptions eopt = opt.experimentOptions();
        eopt.seed = cell.seed;
        PlatformConfig cfg = makeConfig(
            cell.scenario.workload, cell.scenario.lifeguard,
            cell.scenario.mode, cell.scenario.cores, eopt);
        std::printf("%s", cfg.sim.describe().c_str());
    }
    std::printf("\n");
}

// ------------------------------------------------------------ driver

int
runCliMatrix(const CliOptions &opt)
{
    setQuiet(!opt.verbose);

    const std::vector<Scenario> scenarios = opt.scenarios();
    const std::vector<RunSpec> specs = opt.runSpecs();
    const std::size_t num_cells = scenarios.size() * opt.seeds.size();

    if (opt.csv)
        printCsvHeader(opt);
    else if (opt.json)
        printJsonHeader(opt);

    // runMatrix() delivers results in spec order; consecutive groups of
    // `repeat` specs form one output cell, flushed as soon as its last
    // repeat arrives — so long sweeps stream rows while later cells are
    // still running on other job threads.
    std::size_t cells_done = 0, cells_failed = 0, cells_skipped = 0;
    Cell cell;
    auto on_cell = [&](std::size_t i, const CellResult &res) {
        if (cell.repeats.empty()) {
            std::size_t cell_idx = i / opt.repeat;
            cell.scenario = scenarios[cell_idx / opt.seeds.size()];
            cell.seed = opt.seeds[cell_idx % opt.seeds.size()];
        }
        cell.repeats.push_back(res);
        if (cell.repeats.size() < opt.repeat)
            return;
        if (cell.skipped()) {
            // Interrupted before this cell ran: partial output only.
            ++cells_skipped;
            cell = Cell{};
            return;
        }
        if (cell.failed())
            ++cells_failed;
        if (opt.csv)
            printCsvRow(opt, cell);
        else if (opt.json)
            printJsonCell(cell, cells_done == 0);
        else
            printTextRow(opt, cell);
        std::fflush(stdout);
        ++cells_done;
        cell = Cell{};
    };

    installInterruptHandler();
    runMatrix(specs, opt.jobs, on_cell, &g_interrupted);

    bool interrupted = g_interrupted.load(std::memory_order_relaxed);
    if (opt.json) {
        printJsonFooter(num_cells, cells_failed, cells_skipped,
                        interrupted);
        std::fflush(stdout);
    } else if (opt.csv && interrupted) {
        std::printf("# interrupted: %zu of %zu cells skipped\n",
                    cells_skipped, num_cells);
        std::fflush(stdout);
    }
    if (interrupted) {
        std::fprintf(stderr,
                     "paralog: interrupted — %zu of %zu cells skipped\n",
                     cells_skipped, num_cells);
        return 130;
    }
    if (cells_failed > 0) {
        std::fprintf(stderr, "paralog: %zu of %zu cells failed\n",
                     cells_failed, num_cells);
        return 1;
    }
    return 0;
}

// ----------------------------------------------------- daemon client

/** --submit: upload to paralogd, print its JSON verdict. */
int
runSubmit(const CliOptions &opt)
{
    paralog::daemon::SubmitOptions sopt;
    sopt.socketPath = opt.socketPath;
    if (opt.setFlags & kSetLifeguard)
        sopt.lifeguards = opt.lifeguards;
    paralog::daemon::SubmitResult res =
        paralog::daemon::submitTrace(opt.submitPath, sopt);
    if (!res.ok) {
        std::fprintf(stderr, "paralog: --submit: %s\n",
                     res.error.c_str());
        return 1;
    }
    std::printf("%s\n", res.responseJson.c_str());
    return res.status() == "ok" ? 0 : 1;
}

/** --migrate: rewrite a recording into --trace-format (default v2). */
int
runMigrate(const CliOptions &opt)
{
    std::uint32_t dst_format = opt.traceFormatSet ? opt.traceFormat : 2;
    paralog::trace::MigrateResult res = paralog::trace::migrateTrace(
        opt.migratePath, opt.outPath, dst_format);
    if (!res.ok) {
        std::fprintf(stderr, "paralog: --migrate: %s\n",
                     res.error.c_str());
        return 1;
    }
    std::printf("migrated %s (v%u, %llu bytes) -> %s (v%u, %llu bytes), "
                "%llu chunks\n",
                opt.migratePath.c_str(), res.srcFormat,
                static_cast<unsigned long long>(res.srcBytes),
                opt.outPath.c_str(), res.dstFormat,
                static_cast<unsigned long long>(res.dstBytes),
                static_cast<unsigned long long>(res.chunks));
    return 0;
}

/** --daemon-stats: print the metrics dump. */
int
runDaemonStats(const CliOptions &opt)
{
    std::string text, err;
    if (!paralog::daemon::fetchStats(opt.socketPath, text, err)) {
        std::fprintf(stderr, "paralog: --daemon-stats: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("%s\n", text.c_str());
    return 0;
}

} // namespace
} // namespace paralog::cli

int
main(int argc, char **argv)
{
    using namespace paralog::cli;

    ParseResult parsed = parseArgs(argc, argv);
    switch (parsed.status) {
      case ParseStatus::kHelp:
        std::printf("%s", usageText().c_str());
        return 0;
      case ParseStatus::kError:
        std::fprintf(stderr, "paralog: %s\n\n%s", parsed.error.c_str(),
                     usageText().c_str());
        return 2;
      case ParseStatus::kOk:
        break;
    }
    if (!parsed.options.migratePath.empty())
        return runMigrate(parsed.options);
    if (parsed.options.daemonStats)
        return runDaemonStats(parsed.options);
    if (!parsed.options.submitPath.empty())
        return runSubmit(parsed.options);
    if (!parsed.options.replayPath.empty()) {
        std::string err;
        if (!applyReplayHeader(parsed.options, err)) {
            std::fprintf(stderr, "paralog: --replay: %s\n", err.c_str());
            return 2;
        }
    }
    return runCliMatrix(parsed.options);
}
