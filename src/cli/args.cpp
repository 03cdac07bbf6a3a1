#include "cli/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace paralog::cli {

namespace {

/// All values of each list-valued axis, in the order `all` expands to.
const std::vector<LifeguardKind> kAllLifeguards{
    LifeguardKind::kAddrCheck,
    LifeguardKind::kTaintCheck,
    LifeguardKind::kMemCheck,
    LifeguardKind::kLockSet,
};

const std::vector<MonitorMode> kAllModes{
    MonitorMode::kNoMonitoring,
    MonitorMode::kTimesliced,
    MonitorMode::kParallel,
};

constexpr std::uint32_t kMaxCores = 16;
constexpr std::uint32_t kMaxJobs = 64;
constexpr std::uint32_t kMaxRepeat = 1000;

/** Split "a,b,c" into views; empty pieces are kept (and rejected later). */
std::vector<std::string_view>
splitList(std::string_view value)
{
    std::vector<std::string_view> out;
    while (true) {
        std::size_t comma = value.find(',');
        out.push_back(value.substr(0, comma));
        if (comma == std::string_view::npos)
            return out;
        value.remove_prefix(comma + 1);
    }
}

bool
parseU64(std::string_view value, std::uint64_t &out)
{
    if (value.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : value) {
        if (c < '0' || c > '9')
            return false;
        if (v > (UINT64_MAX - (c - '0')) / 10)
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

/**
 * Parse a list-valued axis: `all` or comma-separated values, each
 * resolved by @p parse_one. Returns false with @p err set on failure.
 */
template <typename T, typename ParseOne>
bool
parseAxis(std::string_view flag, std::string_view value,
          const std::vector<T> &all, ParseOne parse_one,
          std::vector<T> &out, std::string &err)
{
    if (value == "all") {
        out = all;
        return true;
    }
    out.clear();
    for (std::string_view piece : splitList(value)) {
        T one;
        if (!parse_one(piece, one)) {
            err = "invalid value '" + std::string(piece) + "' for " +
                  std::string(flag);
            return false;
        }
        if (std::find(out.begin(), out.end(), one) == out.end())
            out.push_back(one);
    }
    return true;
}

} // namespace

const char *
flagName(WorkloadKind w)
{
    switch (w) {
      case WorkloadKind::kBarnes:       return "barnes";
      case WorkloadKind::kLu:           return "lu";
      case WorkloadKind::kOcean:        return "ocean";
      case WorkloadKind::kFmm:          return "fmm";
      case WorkloadKind::kRadiosity:    return "radiosity";
      case WorkloadKind::kBlackscholes: return "blackscholes";
      case WorkloadKind::kFluidanimate: return "fluidanimate";
      case WorkloadKind::kSwaptions:    return "swaptions";
    }
    return "?";
}

const char *
flagName(LifeguardKind lg)
{
    switch (lg) {
      case LifeguardKind::kTaintCheck: return "taintcheck";
      case LifeguardKind::kAddrCheck:  return "addrcheck";
      case LifeguardKind::kMemCheck:   return "memcheck";
      case LifeguardKind::kLockSet:    return "lockset";
    }
    return "?";
}

const char *
flagName(MonitorMode m)
{
    switch (m) {
      case MonitorMode::kNoMonitoring: return "none";
      case MonitorMode::kTimesliced:   return "timesliced";
      case MonitorMode::kParallel:     return "parallel";
    }
    return "?";
}

const char *
flagName(DepTracking d)
{
    switch (d) {
      case DepTracking::kPerBlock: return "per-block";
      case DepTracking::kPerCore:  return "per-core";
    }
    return "?";
}

const char *
flagName(MemoryModel m)
{
    switch (m) {
      case MemoryModel::kSC:  return "sc";
      case MemoryModel::kTSO: return "tso";
    }
    return "?";
}

bool
parseWorkload(std::string_view name, WorkloadKind &out)
{
    for (WorkloadKind w : allWorkloads()) {
        if (name == flagName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

bool
parseLifeguard(std::string_view name, LifeguardKind &out)
{
    for (LifeguardKind lg : kAllLifeguards) {
        if (name == flagName(lg)) {
            out = lg;
            return true;
        }
    }
    return false;
}

bool
parseMode(std::string_view name, MonitorMode &out)
{
    for (MonitorMode m : kAllModes) {
        if (name == flagName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
parseBool(std::string_view value, bool &out)
{
    if (value == "on" || value == "true" || value == "1" || value == "yes") {
        out = true;
        return true;
    }
    if (value == "off" || value == "false" || value == "0" || value == "no") {
        out = false;
        return true;
    }
    return false;
}

std::vector<Scenario>
CliOptions::scenarios() const
{
    std::vector<Scenario> out;
    for (WorkloadKind w : workloads) {
        for (LifeguardKind lg : lifeguards) {
            for (MonitorMode m : modes) {
                // The no-monitoring baseline runs no lifeguard: emit it
                // once per (workload, cores), not once per lifeguard.
                if (m == MonitorMode::kNoMonitoring &&
                    lg != lifeguards.front())
                    continue;
                for (std::uint32_t c : cores)
                    out.push_back(Scenario{w, lg, m, c});
            }
        }
    }
    return out;
}

ExperimentOptions
CliOptions::experimentOptions() const
{
    ExperimentOptions opt;
    opt.scale = scale;
    opt.accelerators = accelerators;
    opt.depTracking = depTracking;
    opt.memoryModel = memoryModel;
    opt.conflictAlerts = conflictAlerts;
    opt.seed = seeds.front();
    opt.logBufferBytes = logBufferBytes;
    opt.maxCycles = maxCycles;
    opt.lgThreads = lgThreads;
    return opt;
}

std::vector<RunSpec>
CliOptions::runSpecs() const
{
    std::vector<RunSpec> specs;
    ExperimentOptions base = experimentOptions();
    for (const Scenario &s : scenarios()) {
        for (std::uint64_t seed : seeds) {
            ExperimentOptions opt = base;
            opt.seed = seed;
            for (std::uint32_t r = 0; r < repeat; ++r)
                specs.push_back(RunSpec{s.workload, s.lifeguard, s.mode,
                                        s.cores, opt, recordPath,
                                        traceFormat, replayPath});
        }
    }
    return specs;
}

std::string
usageText()
{
    std::ostringstream os;
    os << "Usage: paralog [flags]\n"
       << "\n"
       << "Run ParaLog monitoring scenarios (the paper's experiment\n"
       << "matrix) and print per-run statistics. List-valued flags take\n"
       << "comma-separated values or 'all'; the full cross product runs.\n"
       << "\n"
       << "Scenario axes:\n"
       << "  --workload=LIST   ";
    for (WorkloadKind w : allWorkloads())
        os << flagName(w) << (w == allWorkloads().back() ? "" : "|");
    os << "  (default lu)\n"
       << "  --lifeguard=LIST  addrcheck|taintcheck|memcheck|lockset"
       << "  (default taintcheck)\n"
       << "  --mode=LIST       none|timesliced|parallel  (default parallel)\n"
       << "  --cores=LIST      application threads, 1.." << kMaxCores
       << "  (default 4)\n"
       << "  --seed=LIST       workload RNG seeds; a list sweeps the\n"
       << "                    matrix once per seed (default 1)\n"
       << "\n"
       << "Platform knobs (apply to every scenario):\n"
       << "  --accel=on|off          hardware accelerators (IT/IF/M-TLB)\n"
       << "  --dep-tracking=per-block|per-core\n"
       << "  --memory-model=sc|tso   (tso is incompatible with "
       << "--mode=timesliced\n"
       << "                          and --dep-tracking=per-core)\n"
       << "  --conflict-alerts=on|off\n"
       << "  --scale=N               per-thread work units (default 20000)\n"
       << "  --log-buffer=BYTES      log buffer capacity (default 65536)\n"
       << "  --max-cycles=N          simulated-time watchdog override\n"
       << "\n"
       << "Record / replay (paralog-trace-v1/v2, see README):\n"
       << "  --record=FILE  persist the run's event-stream journal; the\n"
       << "                 matrix must be a single parallel-mode cell\n"
       << "  --trace-format=v1|v2\n"
       << "                 container version --record writes or\n"
       << "                 --migrate produces (record default v1;\n"
       << "                 migrate default v2). Readers auto-detect\n"
       << "  --replay=FILE  re-monitor a recording (no application\n"
       << "                 simulation); scenario axes come from the\n"
       << "                 file. --lifeguard=LIST replays once per\n"
       << "                 listed lifeguard; replaying the recorded\n"
       << "                 lifeguard is self-checked bit-identical\n"
       << "                 against the recorded results\n"
       << "  --lg-threads=N run the lifeguard cores on N host threads,\n"
       << "                 live or replay (0/1 = serial engine). N >= 2\n"
       << "                 selects the concurrent engine: analysis\n"
       << "                 fingerprints stay identical to serial,\n"
       << "                 simulated timing is relaxed\n"
       << "  --migrate=SRC  rewrite the recording at SRC into --out=DST\n"
       << "                 using --trace-format (v1<->v2 both ways);\n"
       << "                 replay results are bit-identical across the\n"
       << "                 conversion. No other flags apply\n"
       << "  --out=DST      the --migrate target path\n"
       << "\n"
       << "Monitoring service (a running paralogd, see README):\n"
       << "  --submit=FILE   upload a recording to the daemon for\n"
       << "                  re-monitoring and print its JSON verdict;\n"
       << "                  --lifeguard=LIST selects the monitors\n"
       << "                  (default: the recorded one)\n"
       << "  --socket=PATH   the paralogd Unix-domain socket\n"
       << "  --daemon-stats  print the daemon's metrics dump\n"
       << "\n"
       << "Matrix execution:\n"
       << "  --jobs=N     run cells on N host threads (default 1); each\n"
       << "               cell owns its platform, so results are\n"
       << "               identical for any N and reported in cell order\n"
       << "  --repeat=K   run each cell K times and aggregate\n"
       << "               min/median/max per stat (default 1)\n"
       << "\n"
       << "Output (a failed cell is marked and the exit code is 1):\n"
       << "  --csv        one CSV row per cell (header first; seed and\n"
       << "               repeat columns appear only when sweeping)\n"
       << "  --json       one JSON document for the whole matrix\n"
       << "  --describe   print the Table-1 configuration before each run\n"
       << "  --verbose    keep simulator warnings on stderr\n"
       << "  --help       this text\n"
       << "\n"
       << "Examples:\n"
       << "  paralog --workload=lu --lifeguard=taintcheck --mode=parallel "
       << "--cores=4\n"
       << "  paralog --workload=all --mode=none,parallel --cores=1,2,4,8 "
       << "--csv\n"
       << "  paralog --workload=all --cores=1,2,4,8 --seed=1,2,3 "
       << "--repeat=3 --jobs=4 --json\n"
       << "  paralog --workload=ocean --memory-model=tso --accel=off\n"
       << "  paralog --workload=lu --lifeguard=taintcheck --cores=4 "
       << "--record=lu.trace\n"
       << "  paralog --replay=lu.trace --lifeguard=all --json\n"
       << "  paralog --migrate=lu.trace --out=lu.v2.trace\n"
       << "  paralog --submit=lu.trace --socket=/tmp/paralogd.sock "
       << "--lifeguard=all\n";
    return os.str();
}

namespace {

/// A valued flag: one table entry drives both dispatch and the
/// "requires a value" diagnostic, so they cannot drift apart.
struct ValuedFlag
{
    const char *name;
    bool (*parse)(std::string_view flag, std::string_view value,
                  CliOptions &o, std::string &err);
    /// SetFlag bit marked when the flag appears (0 = not an axis).
    std::uint32_t setBit = 0;
};

const ValuedFlag kValuedFlags[] = {
    {"--workload",
     [](std::string_view flag, std::string_view value, CliOptions &o,
        std::string &err) {
         return parseAxis(flag, value, allWorkloads(), parseWorkload,
                          o.workloads, err);
     },
     kSetWorkload},
    {"--lifeguard",
     [](std::string_view flag, std::string_view value, CliOptions &o,
        std::string &err) {
         return parseAxis(flag, value, kAllLifeguards, parseLifeguard,
                          o.lifeguards, err);
     },
     kSetLifeguard},
    {"--mode",
     [](std::string_view flag, std::string_view value, CliOptions &o,
        std::string &err) {
         return parseAxis(flag, value, kAllModes, parseMode, o.modes,
                          err);
     },
     kSetMode},
    {"--cores",
     [](std::string_view flag, std::string_view value, CliOptions &o,
        std::string &err) {
         auto parse_one = [](std::string_view v, std::uint32_t &out) {
             std::uint64_t n = 0;
             if (!parseU64(v, n) || n < 1 || n > kMaxCores)
                 return false;
             out = static_cast<std::uint32_t>(n);
             return true;
         };
         const std::vector<std::uint32_t> all_cores{1, 2, 4, 8};
         return parseAxis(flag, value, all_cores, parse_one, o.cores,
                          err);
     },
     kSetCores},
    {"--accel",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (parseBool(value, o.accelerators))
             return true;
         err = "invalid value '" + std::string(value) +
               "' for --accel (want on|off)";
         return false;
     },
     kSetAccel},
    {"--conflict-alerts",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (parseBool(value, o.conflictAlerts))
             return true;
         err = "invalid value '" + std::string(value) +
               "' for --conflict-alerts (want on|off)";
         return false;
     },
     kSetConflictAlerts},
    {"--dep-tracking",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (value == "per-block") {
             o.depTracking = DepTracking::kPerBlock;
             return true;
         }
         if (value == "per-core") {
             o.depTracking = DepTracking::kPerCore;
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --dep-tracking (want per-block|per-core)";
         return false;
     },
     kSetDepTracking},
    {"--memory-model",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (value == "sc") {
             o.memoryModel = MemoryModel::kSC;
             return true;
         }
         if (value == "tso") {
             o.memoryModel = MemoryModel::kTSO;
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --memory-model (want sc|tso)";
         return false;
     },
     kSetMemoryModel},
    {"--scale",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (parseU64(value, o.scale) && o.scale > 0)
             return true;
         err = "invalid value '" + std::string(value) +
               "' for --scale (want a positive integer)";
         return false;
     },
     kSetScale},
    {"--seed",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         o.seeds.clear();
         for (std::string_view piece : splitList(value)) {
             std::uint64_t s = 0;
             if (!parseU64(piece, s)) {
                 err = "invalid value '" + std::string(piece) +
                       "' for --seed (want comma-separated integers)";
                 return false;
             }
             if (std::find(o.seeds.begin(), o.seeds.end(), s) ==
                 o.seeds.end())
                 o.seeds.push_back(s);
         }
         return true;
     },
     kSetSeed},
    {"--repeat",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         std::uint64_t n = 0;
         if (parseU64(value, n) && n >= 1 && n <= kMaxRepeat) {
             o.repeat = static_cast<std::uint32_t>(n);
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --repeat (want 1.." + std::to_string(kMaxRepeat) +
               ")";
         return false;
     }},
    {"--jobs",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         std::uint64_t n = 0;
         if (parseU64(value, n) && n >= 1 && n <= kMaxJobs) {
             o.jobs = static_cast<std::uint32_t>(n);
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --jobs (want 1.." + std::to_string(kMaxJobs) + ")";
         return false;
     }},
    {"--max-cycles",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (parseU64(value, o.maxCycles) && o.maxCycles > 0)
             return true;
         err = "invalid value '" + std::string(value) +
               "' for --max-cycles (want a positive cycle count)";
         return false;
     }},
    {"--log-buffer",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (parseU64(value, o.logBufferBytes) && o.logBufferBytes > 0)
             return true;
         err = "invalid value '" + std::string(value) +
               "' for --log-buffer (want a positive byte count)";
         return false;
     },
     kSetLogBuffer},
    {"--lg-threads",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         std::uint64_t n = 0;
         if (parseU64(value, n) && n <= kMaxJobs) {
             o.lgThreads = static_cast<std::uint32_t>(n);
             o.lgThreadsSet = true;
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --lg-threads (want 0.." + std::to_string(kMaxJobs) +
               "; 0/1 = serial)";
         return false;
     }},
    {"--record",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.recordPath = std::string(value);
             return true;
         }
         err = "--record needs a file path (--record=FILE)";
         return false;
     }},
    {"--trace-format",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (value == "v1" || value == "1") {
             o.traceFormat = 1;
             o.traceFormatSet = true;
             return true;
         }
         if (value == "v2" || value == "2") {
             o.traceFormat = 2;
             o.traceFormatSet = true;
             return true;
         }
         err = "invalid value '" + std::string(value) +
               "' for --trace-format (want v1|v2)";
         return false;
     }},
    {"--migrate",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.migratePath = std::string(value);
             return true;
         }
         err = "--migrate needs a trace path (--migrate=SRC)";
         return false;
     }},
    {"--out",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.outPath = std::string(value);
             return true;
         }
         err = "--out needs a file path (--out=DST)";
         return false;
     }},
    {"--replay",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.replayPath = std::string(value);
             return true;
         }
         err = "--replay needs a file path (--replay=FILE)";
         return false;
     }},
    {"--submit",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.submitPath = std::string(value);
             return true;
         }
         err = "--submit needs a file path (--submit=FILE)";
         return false;
     }},
    {"--socket",
     [](std::string_view, std::string_view value, CliOptions &o,
        std::string &err) {
         if (!value.empty()) {
             o.socketPath = std::string(value);
             return true;
         }
         err = "--socket needs a socket path (--socket=PATH)";
         return false;
     }},
};

/// Flags that take no value, mapped to the CliOptions field they set.
const std::pair<const char *, bool CliOptions::*> kNoValueFlags[] = {
    {"--csv", &CliOptions::csv},
    {"--json", &CliOptions::json},
    {"--describe", &CliOptions::describe},
    {"--verbose", &CliOptions::verbose},
    {"--daemon-stats", &CliOptions::daemonStats},
};

} // namespace

ParseResult
parseArgs(const std::vector<std::string_view> &args)
{
    ParseResult res;
    CliOptions &o = res.options;

    auto fail = [&res](std::string msg) {
        res.status = ParseStatus::kError;
        res.error = std::move(msg);
        return res;
    };

    for (std::string_view arg : args) {
        if (arg == "--help" || arg == "-h") {
            res.status = ParseStatus::kHelp;
            return res;
        }
        std::size_t eq = arg.find('=');
        std::string_view flag = arg.substr(0, eq);
        bool matched = false;

        for (const auto &[name, field] : kNoValueFlags) {
            if (flag != name)
                continue;
            if (eq != std::string_view::npos)
                return fail("flag '" + std::string(flag) +
                            "' takes no value");
            o.*field = true;
            matched = true;
            break;
        }
        if (matched)
            continue;

        if (arg.substr(0, 2) != "--")
            return fail("unexpected argument '" + std::string(arg) + "'");
        if (eq != std::string_view::npos && flag == "--help")
            return fail("flag '--help' takes no value");

        for (const ValuedFlag &vf : kValuedFlags) {
            if (flag != vf.name)
                continue;
            if (eq == std::string_view::npos)
                return fail("flag '" + std::string(flag) +
                            "' requires a value (" + std::string(flag) +
                            "=...)");
            std::string err;
            if (!vf.parse(flag, arg.substr(eq + 1), o, err))
                return fail(err);
            o.setFlags |= vf.setBit;
            matched = true;
            break;
        }
        if (!matched)
            return fail("unknown flag '" + std::string(flag) + "'");
    }

    // Cross-axis validation: the TIMESLICED baseline interleaves all app
    // threads on one core, which models SC by construction; a TSO run of
    // it would silently measure the wrong machine.
    bool timesliced =
        std::find(o.modes.begin(), o.modes.end(),
                  MonitorMode::kTimesliced) != o.modes.end();
    if (timesliced && o.memoryModel == MemoryModel::kTSO)
        return fail("--mode=timesliced is incompatible with "
                    "--memory-model=tso (the timesliced baseline is "
                    "sequentially consistent by construction)");
    // Per-core dependence tracking keeps one timestamp per core, too
    // coarse for the TSO versioning protocol's arcs: such runs
    // deadlock (lu on 2 cores already at --scale=500).
    if (o.depTracking == DepTracking::kPerCore &&
        o.memoryModel == MemoryModel::kTSO)
        return fail("--dep-tracking=per-core is incompatible with "
                    "--memory-model=tso (per-core TSO runs deadlock in "
                    "the versioning protocol)");

    if (o.csv && o.json)
        return fail("--csv and --json are mutually exclusive (pick one "
                    "machine-readable format)");

    if (!o.recordPath.empty() && !o.replayPath.empty())
        return fail("--record and --replay are mutually exclusive");

    // --record persists exactly one run: a multi-cell matrix would
    // overwrite the file once per cell.
    if (!o.recordPath.empty()) {
        if (o.modes.size() != 1 || o.modes[0] != MonitorMode::kParallel)
            return fail("--record requires --mode=parallel (the "
                        "baselines have no event streams to record)");
        if (o.workloads.size() != 1 || o.lifeguards.size() != 1 ||
            o.cores.size() != 1 || o.seeds.size() != 1 || o.repeat != 1)
            return fail("--record captures a single run: use exactly one "
                        "workload, lifeguard, core count and seed, and "
                        "no --repeat");
    }

    // --lg-threads selects the lifeguard cores' host threading, live or
    // replay; 0/1 is the serial engine everywhere. A recording journals
    // the serial scheduler's lifeguard-step interleaving, which the
    // concurrent live engine does not have. And the concurrent engines
    // rely on the two-sided ConflictAlert barriers for cross-stream
    // ordering, with no serial scheduler to fall back on.
    if (o.lgThreads >= 2 && !o.recordPath.empty())
        return fail("--record journals the serial engine and cannot be "
                    "combined with --lg-threads=N (N >= 2)");
    if (o.lgThreadsSet && o.lgThreads >= 2 && o.replayPath.empty() &&
        !o.conflictAlerts)
        return fail("--lg-threads=N (N >= 2) relies on the ConflictAlert "
                    "barriers and cannot be combined with "
                    "--conflict-alerts=off");

    // --trace-format picks the container --record writes or --migrate
    // produces; replay and live runs auto-detect.
    if (o.traceFormatSet && o.recordPath.empty() && o.migratePath.empty())
        return fail("--trace-format applies to --record and --migrate "
                    "(readers auto-detect the version)");

    // --migrate is an offline file rewrite: no simulation, no scenario.
    if (!o.outPath.empty() && o.migratePath.empty())
        return fail("--out does nothing without --migrate=SRC");
    if (!o.migratePath.empty()) {
        if (o.outPath.empty())
            return fail("--migrate needs a target path (--out=DST)");
        if (!o.recordPath.empty() || !o.replayPath.empty() ||
            !o.submitPath.empty() || o.daemonStats)
            return fail("--migrate is mutually exclusive with --record, "
                        "--replay, --submit and --daemon-stats");
        if (o.setFlags != 0 || o.lgThreadsSet)
            return fail("--migrate rewrites the recording as-is; only "
                        "--trace-format may be combined with it");
    }

    // --replay takes every scenario axis from the recording; only the
    // lifeguard may be overridden (re-monitoring under a different
    // monitor is the point of record-once/replay-many).
    if (!o.replayPath.empty() &&
        (o.setFlags & ~static_cast<std::uint32_t>(kSetLifeguard)) != 0)
        return fail("--replay takes the scenario and platform axes from "
                    "the recording; only --lifeguard (and output/"
                    "execution flags) may be combined with it");

    // Daemon-client modes: small, exclusive, and socket-bound.
    if (!o.submitPath.empty() && o.daemonStats)
        return fail("--submit and --daemon-stats are mutually exclusive");
    if ((!o.submitPath.empty() || o.daemonStats) && o.socketPath.empty())
        return fail("--submit/--daemon-stats need --socket=PATH (the "
                    "paralogd socket)");
    if (o.socketPath.empty() == false && o.submitPath.empty() &&
        !o.daemonStats)
        return fail("--socket does nothing without --submit or "
                    "--daemon-stats");
    if (!o.submitPath.empty() &&
        (!o.replayPath.empty() || !o.recordPath.empty()))
        return fail("--submit is mutually exclusive with --record and "
                    "--replay (the daemon does the re-monitoring)");
    if (!o.submitPath.empty() &&
        (o.setFlags & ~static_cast<std::uint32_t>(kSetLifeguard)) != 0)
        return fail("--submit sends the recording as-is; only "
                    "--lifeguard may be combined with it");

    return res;
}

ParseResult
parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string_view> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    return parseArgs(args);
}

} // namespace paralog::cli
