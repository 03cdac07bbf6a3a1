/**
 * @file
 * Command-line parsing for the `paralog` scenario-matrix driver. Every
 * axis of the experiment space (workload, lifeguard, monitoring mode,
 * core count, accelerators, dependence tracking, memory model, seed) is
 * a flag; list-valued flags accept comma-separated values (or `all` for
 * the enum axes), and the driver runs the full cross product — on
 * `--jobs=N` host threads, `--repeat=K` times per cell, reporting text,
 * `--csv` or `--json`.
 *
 * Parsing is split from main() so tests can exercise flag handling
 * without spawning processes.
 */

#ifndef PARALOG_CLI_ARGS_HPP
#define PARALOG_CLI_ARGS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "lifeguard/lifeguard.hpp"
#include "sim/config.hpp"
#include "workloads/workload.hpp"

namespace paralog::cli {

/** One fully-specified (workload, lifeguard, mode, cores) scenario. */
struct Scenario
{
    WorkloadKind workload;
    LifeguardKind lifeguard;
    MonitorMode mode;
    std::uint32_t cores;
};

/** Bits in CliOptions::setFlags: which scenario-axis flags were given
 *  explicitly (drives --replay conflict detection: replay takes every
 *  axis except the lifeguard from the recording). */
enum SetFlag : std::uint32_t
{
    kSetWorkload = 1u << 0,
    kSetLifeguard = 1u << 1,
    kSetMode = 1u << 2,
    kSetCores = 1u << 3,
    kSetSeed = 1u << 4,
    kSetScale = 1u << 5,
    kSetMemoryModel = 1u << 6,
    kSetAccel = 1u << 7,
    kSetDepTracking = 1u << 8,
    kSetConflictAlerts = 1u << 9,
    kSetLogBuffer = 1u << 10,
};

struct CliOptions
{
    std::vector<WorkloadKind> workloads{WorkloadKind::kLu};
    std::vector<LifeguardKind> lifeguards{LifeguardKind::kTaintCheck};
    std::vector<MonitorMode> modes{MonitorMode::kParallel};
    std::vector<std::uint32_t> cores{4};
    std::vector<std::uint64_t> seeds{1}; ///< --seed=a,b,c sweeps

    bool accelerators = true;
    DepTracking depTracking = DepTracking::kPerBlock;
    MemoryModel memoryModel = MemoryModel::kSC;
    bool conflictAlerts = true;
    std::uint64_t scale = 20000;
    std::uint64_t logBufferBytes = 64 * 1024;
    std::uint64_t maxCycles = 0; ///< 0 = platform default watchdog

    /// --lg-threads=N: host threads for the lifeguard cores, live or
    /// replay (0/1 = serial engine; >= 2 = concurrent engine). Which
    /// result columns each engine keeps is ResultTier
    /// (core/run_stats.hpp). N >= 2 cannot be combined with --record.
    std::uint32_t lgThreads = 0;
    bool lgThreadsSet = false; ///< flag given (drives conflict checks)

    std::uint32_t jobs = 1;   ///< host threads running matrix cells
    std::uint32_t repeat = 1; ///< repeats per cell, aggregated

    /// --record=FILE: persist the (single) run as a trace file.
    std::string recordPath;
    /// --trace-format=v1|v2: container version for --record and the
    /// target version for --migrate (1 = paralog-trace-v1, 2 = v2).
    std::uint32_t traceFormat = 1;
    bool traceFormatSet = false; ///< flag given (drives --migrate default)
    /// --migrate=SRC: rewrite the recording at SRC into --out=DST using
    /// --trace-format (default v2 when unset). Exclusive with every
    /// run mode.
    std::string migratePath;
    /// --out=DST: the migration target path (required with --migrate).
    std::string outPath;
    /// --replay=FILE: re-monitor a recording; scenario axes come from
    /// the file, --lifeguard optionally overrides the monitor.
    std::string replayPath;
    /// --submit=FILE: upload a recording to a running paralogd for
    /// re-monitoring (requires --socket; --lifeguard selects monitors).
    std::string submitPath;
    /// --socket=PATH: the paralogd Unix-domain socket that --submit
    /// and --daemon-stats talk to.
    std::string socketPath;
    /// --daemon-stats: print the paralogd metrics dump from --socket.
    bool daemonStats = false;
    std::uint32_t setFlags = 0; ///< SetFlag bits of explicit axes

    bool csv = false;      ///< machine-readable CSV output
    bool json = false;     ///< machine-readable JSON output
    bool describe = false; ///< print the Table-1 configuration per run
    bool verbose = false;  ///< keep warn()/inform() output

    /**
     * The cross product of the list-valued axes, in flag order —
     * except that no-monitoring scenarios appear once per
     * (workload, cores), not once per lifeguard: the baseline attaches
     * no lifeguard, so those runs would be identical repeats.
     */
    std::vector<Scenario> scenarios() const;

    /** Experiment options shared by every scenario (first seed). */
    ExperimentOptions experimentOptions() const;

    /**
     * The fully-expanded work queue for runMatrix(): scenarios x seeds,
     * each spec repeated `repeat` times consecutively, so the specs of
     * output cell c are indices [c * repeat, (c + 1) * repeat).
     */
    std::vector<RunSpec> runSpecs() const;

    /** True when output rows need seed/repeat columns (seed sweep or
     *  repeated cells). Single-run invocations keep the legacy CSV
     *  schema, so committed bench baselines stay bit-identical. */
    bool
    sweepColumns() const
    {
        return seeds.size() > 1 || repeat > 1;
    }
};

enum class ParseStatus
{
    kOk,       ///< options populated, run the scenarios
    kHelp,     ///< --help: print usage, exit 0
    kError,    ///< bad flag/value/combination: print error + usage, exit 2
};

struct ParseResult
{
    ParseStatus status = ParseStatus::kOk;
    std::string error; ///< set iff status == kError
    CliOptions options;
};

/** Parse argv (excluding argv[0]); never exits or prints. */
ParseResult parseArgs(const std::vector<std::string_view> &args);

/** Convenience overload for main(). */
ParseResult parseArgs(int argc, const char *const *argv);

/** Full usage text, `--help` style. */
std::string usageText();

// Individual value parsers (exposed for unit tests). Each returns true
// and fills @p out on success.
bool parseWorkload(std::string_view name, WorkloadKind &out);
bool parseLifeguard(std::string_view name, LifeguardKind &out);
bool parseMode(std::string_view name, MonitorMode &out);
bool parseBool(std::string_view value, bool &out);

/** Flag-style (short, lowercase) names, distinct from toString(). */
const char *flagName(WorkloadKind w);
const char *flagName(LifeguardKind lg);
const char *flagName(MonitorMode m);
const char *flagName(DepTracking d);
const char *flagName(MemoryModel m);

} // namespace paralog::cli

#endif // PARALOG_CLI_ARGS_HPP
