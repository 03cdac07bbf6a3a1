/**
 * @file
 * The four benchmark workloads. Each runs a fixed list of operations
 * per pass, repeated until the measuring time is used up, and checks
 * every operation against the oracle. End-to-end metrics are medians
 * over passes; the traced run (Options::trace) alternates untraced and
 * traced passes and reports per-layer metrics only.
 */

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cli/args.hpp"
#include "core/replay.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "lifeguard/shadow_memory.hpp"
#include "trace/trace_reader.hpp"

namespace perfbench {

using namespace paralog;
using cli::flagName;

namespace {

constexpr std::uint32_t kCores = 4;

/** A parallel-mode recording spec (v2 container unless @p format). */
RunSpec
recordSpec(WorkloadKind w, LifeguardKind lg, std::uint32_t cores,
           const ExperimentOptions &eo, const std::string &path,
           std::uint32_t format = trace::kFormatVersionV2)
{
    RunSpec spec;
    spec.workload = w;
    spec.lifeguard = lg;
    spec.mode = MonitorMode::kParallel;
    spec.cores = cores;
    spec.opt = eo;
    spec.recordPath = path;
    spec.recordFormat = format;
    return spec;
}

/** The `paralog --csv` row of one parallel-mode cell. */
std::string
csvRow(WorkloadKind w, LifeguardKind lg, MemoryModel mm,
       std::uint64_t scale, const RunResult &r)
{
    std::uint64_t records = 0, useful = 0, dep = 0, app_stall = 0;
    for (const LifeguardThreadStats &l : r.lifeguard) {
        records += l.recordsProcessed;
        useful += l.usefulCycles;
        dep += l.depStallTotal();
        app_stall += l.appStall;
    }
    std::ostringstream os;
    os << flagName(w) << ',' << flagName(lg) << ",parallel," << r.app.size()
       << ",on,per-block," << flagName(mm) << ',' << scale << ','
       << r.totalCycles << ',' << r.appExecTotal() << ','
       << r.retiredTotal() << ',' << records << ','
       << r.eventsHandledTotal() << ',' << useful << ',' << dep << ','
       << app_stall << ',' << r.violationCount << ','
       << r.versionsProduced << ',' << r.versionsConsumed << ','
       << r.versionStallRetries;
    return os.str();
}

std::uint64_t
recordsOf(const RunResult &r)
{
    std::uint64_t n = 0;
    for (const LifeguardThreadStats &l : r.lifeguard)
        n += l.recordsProcessed;
    return n;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Timing and volume of one pass. Live and replay parts are kept
 *  apart so the lg2 workload can report each engine on its own. */
struct Pass
{
    bool traced = false;
    double passS = 0;    ///< the whole pass, checks included
    double liveCtorS = 0, replayCtorS = 0, daemonStartS = 0;
    double liveRunS = 0, replayRunS = 0, verdictS = 0;
    double liveCpuS = 0, replayCpuS = 0;
    std::uint64_t retired = 0;
    std::uint64_t records = 0;
    std::vector<double> opMs; ///< per-operation latency
    double calSliceS = 0; ///< median calibration slice of the pass
    double calSpentS = 0; ///< wall seconds in slices and warm-ups

    double setupS() const { return liveCtorS + replayCtorS + daemonStartS; }
    double runS() const { return liveRunS + replayRunS + verdictS; }

    /** Factor from this pass's wall seconds to nominal host seconds. */
    double
    speed() const
    {
        return calSliceS > 0 ? Calibrator::kNominalSliceS / calSliceS : 1.0;
    }
};

/** Passes plus the one-time set-up figures. */
struct Tally
{
    std::vector<Pass> passes;
    double recordS = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t traceRecords = 0;
    /// Latency percentiles pool every operation of every pass (the
    /// daemon: >= 100 uploads of one kind). Otherwise a pass is a few
    /// dozen distinct operations whose sizes differ twentyfold, where a
    /// pooled percentile falls on the edge between two size groups and
    /// moves with the number of passes that fit; there it is taken over
    /// the operations, each at its median across passes.
    bool pooledLatency = false;

    std::vector<double>
    of(bool traced, const std::function<double(const Pass &)> &f) const
    {
        std::vector<double> v;
        for (const Pass &p : passes)
            if (p.traced == traced)
                v.push_back(f(p));
        return v;
    }

    double
    med(bool traced, const std::function<double(const Pass &)> &f) const
    {
        return median(of(traced, f));
    }
};

/**
 * Repeat @p pass until the measuring time is used up. Untraced runs do
 * at least one pass; traced runs alternate untraced and traced passes
 * and do at least one of each. The peak resident set restarts here, so
 * it covers the passes and not the set-up before them.
 */
void
measure(Context &ctx, Tally &t, const std::function<void(Pass &)> &pass)
{
    if (!resetPeakRss())
        std::fprintf(stderr, "perfbench: cannot reset the peak resident "
                             "set; peak_rss_mb includes set-up\n");
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        std::size_t min_passes = ctx.opt.trace ? 2 : 1;
        if (i >= min_passes && secondsSince(start) >= ctx.opt.seconds)
            break;
        Pass p;
        p.traced = ctx.opt.trace && i % 2 == 1;
        ctx.spans.enabled = p.traced;
        std::uint64_t n0 = ctx.cal.slices();
        double w0 = ctx.cal.spent();
        Clock::time_point t0 = Clock::now();
        {
            Spans::Scope s(ctx.spans, "bench", "pass");
            pass(p);
        }
        p.calSliceS = ctx.cal.medianSince(n0);
        p.calSpentS = ctx.cal.spent() - w0;
        p.passS = secondsSince(t0) - p.calSpentS;
        ctx.spans.enabled = false;
        t.passes.push_back(std::move(p));
    }
}

double
ratio(std::uint64_t num, double den)
{
    return den > 0 ? static_cast<double>(num) / den : 0.0;
}

/**
 * One-time cost of @p n single-threaded operations, @p op(0) to
 * @p op(n - 1), each followed by a calibration slice, all repeated
 * @p reps times: the sum of each operation's fastest CPU seconds, so a
 * one-time cost is not at the mercy of one slow moment, at the nominal
 * host speed of the median slice. CPU rather than wall time leaves out
 * the wait for each journal's fsync, which is the shared disk's
 * latency; the bytes written show in trace_bytes_per_rec.
 */
double
oneTimeSeconds(Context &ctx, int reps, std::size_t n,
               const std::function<void(std::size_t)> &op)
{
    std::uint64_t n0 = ctx.cal.slices();
    std::vector<double> best(n, 0);
    for (int r = 0; r < reps; ++r)
        for (std::size_t i = 0; i < n; ++i) {
            double cpu0 = processCpuSeconds();
            op(i);
            double cpu = processCpuSeconds() - cpu0;
            best[i] = r == 0 ? cpu : std::min(best[i], cpu);
            ctx.cal.slice();
        }
    double sum = 0;
    for (double s : best)
        sum += s;
    return sum * Calibrator::kNominalSliceS / ctx.cal.medianSince(n0);
}

/** The end-to-end metrics every workload reports (untraced run). */
void
reportEndToEnd(Context &ctx, const Tally &t)
{
    Metrics &m = ctx.metrics;
    std::vector<double> op_ms;
    std::vector<std::vector<double>> per_op;
    for (const Pass &p : t.passes) {
        if (p.traced)
            continue;
        per_op.resize(std::max(per_op.size(), p.opMs.size()));
        for (std::size_t i = 0; i < p.opMs.size(); ++i) {
            if (t.pooledLatency)
                op_ms.push_back(p.opMs[i] * p.speed());
            else
                per_op[i].push_back(p.opMs[i] * p.speed());
        }
    }
    if (!t.pooledLatency)
        for (const std::vector<double> &v : per_op)
            op_ms.push_back(median(v));
    m.set("setup_s", t.med(false, [](const Pass &p) {
              return p.setupS() * p.speed();
          }),
          "s");
    m.set("record_s", t.recordS, "s");
    m.set("pass_s", t.med(false, [](const Pass &p) {
              return p.passS * p.speed();
          }),
          "s");
    m.set("sim_mops_per_s", t.med(false, [](const Pass &p) {
              return ratio(p.retired, p.runS() * p.speed()) / 1e6;
          }),
          "Mop/s");
    m.set("records_per_s", t.med(false, [](const Pass &p) {
              return ratio(p.records, p.runS() * p.speed()) / 1e6;
          }),
          "Mrec/s");
    m.set("verdict_ms_p50", percentile(op_ms, 0.5), "ms");
    m.set("verdict_ms_p90", percentile(op_ms, 0.9), "ms");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("trace_bytes_per_rec",
          ratio(t.traceBytes, static_cast<double>(t.traceRecords)), "B");
    std::uint64_t a = ctx.oracle.attempted();
    m.set("ok_ratio",
          ratio(a - ctx.oracle.failed(), static_cast<double>(a)), "ratio");
    // The unscaled figures, for reading the scaled ones against raw
    // per-layer times (same medians over the same passes).
    std::printf("perfbench: pass_s %.6f nominal s = %.6f wall s at "
                "host speed %.4f nominal s per wall s\n",
                t.med(false, [](const Pass &p) {
                    return p.passS * p.speed();
                }),
                t.med(false, [](const Pass &p) { return p.passS; }),
                t.med(false, [](const Pass &p) { return p.speed(); }));
}

/** Traced-run figures every workload reports. */
void
reportTraced(Context &ctx, const Tally &t)
{
    auto pass = [](const Pass &p) { return p.passS * p.speed(); };
    double untraced = t.med(false, pass);
    double traced = t.med(true, pass);
    ctx.metrics.set("bench.trace_overhead_pct",
                    untraced > 0 ? (traced - untraced) / untraced * 100.0
                                 : 0.0,
                    "%");
    // Per-layer times are raw wall seconds; these convert them to the
    // nominal seconds the end-to-end metrics are reported in.
    ctx.metrics.set("bench.pass_wall_s",
                    t.med(false, [](const Pass &p) { return p.passS; }),
                    "s");
    ctx.metrics.set("bench.host_speed",
                    t.med(false, [](const Pass &p) { return p.speed(); }),
                    "ratio");
}

/** Run @p fn as one checked operation; a panic fails the operation. */
void
guarded(Context &ctx, const std::string &what,
        const std::function<bool()> &fn)
{
    bool ok = false;
    try {
        ok = fn();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                     e.what());
    }
    ctx.oracle.op(ok);
}

// ------------------------------------------------------------ live cells

struct Cell
{
    WorkloadKind workload;
    LifeguardKind lifeguard;
    MemoryModel mm;
    std::uint64_t scale;

    std::string
    key() const
    {
        return std::string("live.") + flagName(lifeguard) + '.' +
               flagName(mm) + '.' + flagName(workload);
    }
};

std::uint64_t
scaled(const Options &opt, std::uint64_t s)
{
    return std::max<std::uint64_t>(1, s / opt.scaleDiv);
}

/** The Fig. 6 AddrCheck and TaintCheck cells plus their TSO twins.
 *  barnes has no TSO twin: it trips the progress watchdog (protocol
 *  deadlock) under TSO at these scales. */
std::vector<Cell>
liveCells(const Options &opt)
{
    std::vector<Cell> cells;
    for (WorkloadKind w : allWorkloads())
        cells.push_back({w, LifeguardKind::kAddrCheck, MemoryModel::kSC,
                         scaled(opt, 300000)});
    for (WorkloadKind w : allWorkloads())
        cells.push_back({w, LifeguardKind::kTaintCheck, MemoryModel::kSC,
                         scaled(opt, 100000)});
    for (LifeguardKind lg : {LifeguardKind::kAddrCheck,
                             LifeguardKind::kTaintCheck})
        for (WorkloadKind w : {WorkloadKind::kFmm, WorkloadKind::kLu,
                               WorkloadKind::kOcean,
                               WorkloadKind::kSwaptions})
            cells.push_back({w, lg, MemoryModel::kTSO, scaled(opt, 300000)});
    return cells;
}

ExperimentOptions
cellOptions(const Cell &c, const Options &opt, std::uint32_t lg_threads)
{
    ExperimentOptions eo;
    eo.scale = c.scale;
    eo.seed = opt.seed;
    eo.memoryModel = c.mm;
    eo.lgThreads = lg_threads;
    return eo;
}

/** Same fingerprint recordExperiment writes into a trace footer. */
std::uint64_t
liveShadowFingerprint(Platform &p)
{
    const ShadowMemory &s = p.lifeguard().shadow();
    return shadowFingerprint(s, AddressLayout::kHeapBase, 1 << 20) ^
           shadowFingerprint(s, AddressLayout::kGlobalBase, 1 << 16);
}

void
noteShadow(Context &ctx, const ShadowMemory &s)
{
    double mb = static_cast<double>(s.bytesAllocated()) / (1 << 20);
    ctx.layer["lifeguard.shadow_mb"] =
        std::max(ctx.layer["lifeguard.shadow_mb"], mb);
}

void
noteResult(Context &ctx, const RunResult &r)
{
    auto &L = ctx.layer;
    L["lifeguard.events_handled"] +=
        static_cast<double>(r.eventsHandledTotal());
    L["lifeguard.versions_produced"] +=
        static_cast<double>(r.versionsProduced);
    L["lifeguard.versions_consumed"] +=
        static_cast<double>(r.versionsConsumed);
}

/** Layer counters of a finished live platform (one traced pass). */
void
collectLiveLayers(Context &ctx, Platform &p, const RunResult &r)
{
    auto &L = ctx.layer;
    auto add = [&](const char *key, const StatSet &s, const char *ctr) {
        L[key] += static_cast<double>(s.get(ctr));
    };
    for (ThreadId t = 0; t < kCores; ++t) {
        const StatSet &cap = p.capture(t).stats;
        add("capture.records", cap, "records");
        add("capture.filtered", cap, "filtered");
        add("capture.with_arcs", cap, "records_with_arcs");
        LifeguardCore &lc = p.lifeguardCore(t);
        const StatSet &enf = lc.enforcer().stats;
        add("deliver.delivered", enf, "delivered");
        add("deliver.dep_stalls", enf, "dep_stalls");
        add("deliver.ca_waits", enf, "ca_wait_cycles");
        add("deliver.version_stalls", enf, "version_stalls");
        for (const auto &[k, c] : lc.accel().it().stats.counters())
            if (k.rfind("absorbed_", 0) == 0)
                L["accel.it.absorbed"] += static_cast<double>(c.value());
        add("accel.if.hits", lc.accel().ifilter().stats, "hits");
        add("accel.if.misses", lc.accel().ifilter().stats, "misses");
        add("accel.mtlb.hits", lc.accel().mtlb().stats, "hits");
        add("accel.mtlb.misses", lc.accel().mtlb().stats, "misses");
    }
    noteResult(ctx, r);
    noteShadow(ctx, p.lifeguard().shadow());
}

/**
 * One live cell as a checked operation. Serial runs check the CSV row
 * and both fingerprints; lg2 runs check only the fingerprints (their
 * timing columns are relaxed).
 */
void
runCell(Context &ctx, const Cell &c, std::uint32_t lg_threads, Pass &pass,
        bool collect)
{
    Clock::time_point t0 = Clock::now();
    Spans::Scope op(ctx.spans, "bench", c.key());
    guarded(ctx, c.key(), [&] {
        PlatformConfig cfg =
            makeConfig(c.workload, c.lifeguard, MonitorMode::kParallel,
                       kCores, cellOptions(c, ctx.opt, lg_threads));
        Clock::time_point tc = Clock::now();
        std::optional<Platform> p;
        {
            Spans::Scope s(ctx.spans, "core", "Platform::Platform");
            p.emplace(cfg);
        }
        pass.liveCtorS += secondsSince(tc);
        Clock::time_point tr = Clock::now();
        double cpu0 = processCpuSeconds();
        RunResult r;
        {
            Spans::Scope s(ctx.spans, "core", "Platform::run");
            r = p->run();
        }
        pass.liveRunS += secondsSince(tr);
        pass.liveCpuS += processCpuSeconds() - cpu0;
        pass.retired += r.retiredTotal();
        pass.records += recordsOf(r);
        std::uint64_t fp;
        {
            Spans::Scope s(ctx.spans, "lifeguard", "shadowFingerprint");
            fp = liveShadowFingerprint(*p);
        }
        if (collect)
            collectLiveLayers(ctx, *p, r);
        Spans::Scope s(ctx.spans, "bench", "check");
        bool ok = true;
        if (lg_threads < 2)
            ok &= ctx.oracle.check(
                c.key() + ".row",
                csvRow(c.workload, c.lifeguard, c.mm, c.scale, r));
        ok &= ctx.oracle.check(c.key() + ".shadow", hex(fp));
        ok &= ctx.oracle.check(c.key() + ".viol",
                               hex(r.violationFingerprint));
        return ok;
    });
    pass.opMs.push_back(secondsSince(t0) * 1e3);
    ctx.cal.slice();
}

/**
 * Record every cell (v2): the one-time cost of making the workload
 * re-monitorable, best of three. The recorded results go through the
 * same oracle keys as the live runs (recording leaves results
 * unchanged).
 */
void
recordCells(Context &ctx, Tally &t, const std::vector<Cell> &cells)
{
    std::vector<std::uint64_t> bytes(cells.size()), records(cells.size());
    t.recordS = oneTimeSeconds(ctx, 3, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        std::string path = std::string(kWorkDir) + "/" + c.key() + ".trace";
        guarded(ctx, "record " + c.key(), [&] {
            RunResult r = recordExperiment(recordSpec(
                c.workload, c.lifeguard, kCores, cellOptions(c, ctx.opt, 0),
                path));
            bytes[i] = fileBytes(path);
            records[i] = recordsOf(r);
            return ctx.oracle.check(c.key() + ".row",
                                    csvRow(c.workload, c.lifeguard, c.mm,
                                           c.scale, r)) &
                   ctx.oracle.check(c.key() + ".shadow",
                                    hex(r.shadowFingerprint)) &
                   ctx.oracle.check(c.key() + ".viol",
                                    hex(r.violationFingerprint));
        });
        std::remove(path.c_str());
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        t.traceBytes += bytes[i];
        t.traceRecords += records[i];
    }
}

// ------------------------------------------------------------- journals

struct Journal
{
    std::string stem;
    WorkloadKind workload;
    LifeguardKind lifeguard;
    MemoryModel mm;
    std::string path;
    RunResult recorded;
};

/** The remonitor journals: 4 cores, scale 1000000, v2 container,
 *  recorded best of five. */
std::vector<Journal>
recordJournals(Context &ctx, Tally &t)
{
    std::vector<Journal> js = {
        {"barnes-taintcheck-sc", WorkloadKind::kBarnes,
         LifeguardKind::kTaintCheck, MemoryModel::kSC, "", {}},
        {"fmm-addrcheck-sc", WorkloadKind::kFmm, LifeguardKind::kAddrCheck,
         MemoryModel::kSC, "", {}},
        {"fmm-taintcheck-tso", WorkloadKind::kFmm,
         LifeguardKind::kTaintCheck, MemoryModel::kTSO, "", {}},
    };
    t.recordS = oneTimeSeconds(ctx, 5, js.size(), [&](std::size_t i) {
        Journal &j = js[i];
        j.path = std::string(kWorkDir) + "/" + j.stem + ".trace";
        guarded(ctx, "record " + j.stem, [&] {
            Cell c{j.workload, j.lifeguard, j.mm, scaled(ctx.opt, 1000000)};
            j.recorded = recordExperiment(
                recordSpec(j.workload, j.lifeguard, kCores,
                           cellOptions(c, ctx.opt, 0), j.path));
            std::string key = "rec." + j.stem;
            return ctx.oracle.check(key + ".shadow",
                                    hex(j.recorded.shadowFingerprint)) &
                   ctx.oracle.check(key + ".viol",
                                    hex(j.recorded.violationFingerprint));
        });
    });
    for (const Journal &j : js) {
        t.traceBytes += fileBytes(j.path);
        t.traceRecords += recordsOf(j.recorded);
    }
    return js;
}

/**
 * Replay one journal as a checked operation. A replay under the
 * recorded lifeguard passes the engine's own footer self-check and
 * must reproduce the recording's fingerprints; a cross-lifeguard
 * replay is checked through the oracle.
 */
void
replayJournal(Context &ctx, const Journal &j, LifeguardKind lg,
              std::uint32_t lg_threads, Pass &pass, bool collect)
{
    Clock::time_point t0 = Clock::now();
    std::string key = "replay." + j.stem + "." + flagName(lg);
    Spans::Scope op(ctx.spans, "bench", key);
    guarded(ctx, key, [&] {
        ReplayConfig rc;
        rc.path = j.path;
        rc.lifeguardOverride = true;
        rc.lifeguard = lg;
        rc.lgThreads = lg_threads;
        Clock::time_point tc = Clock::now();
        std::optional<ReplayPlatform> rp;
        {
            Spans::Scope s(ctx.spans, "core", "ReplayPlatform::ReplayPlatform");
            rp.emplace(std::move(rc));
        }
        pass.replayCtorS += secondsSince(tc);
        Clock::time_point tr = Clock::now();
        double cpu0 = processCpuSeconds();
        RunResult r;
        {
            Spans::Scope s(ctx.spans, "core", "ReplayPlatform::run");
            r = rp->run();
        }
        pass.replayRunS += secondsSince(tr);
        pass.replayCpuS += processCpuSeconds() - cpu0;
        pass.retired += r.retiredTotal();
        pass.records += recordsOf(r);
        if (collect) {
            noteResult(ctx, r);
            noteShadow(ctx, rp->lifeguard().shadow());
        }
        Spans::Scope s(ctx.spans, "bench", "check");
        bool ok = true;
        if (lg == j.lifeguard) {
            ok &= r.shadowFingerprint == j.recorded.shadowFingerprint;
            ok &= r.violationFingerprint == j.recorded.violationFingerprint;
        } else if (lg_threads < 2) {
            Cell c{j.workload, lg, j.mm, scaled(ctx.opt, 1000000)};
            ok &= ctx.oracle.check(key + ".row",
                                   csvRow(c.workload, lg, c.mm, c.scale, r));
        }
        ok &= ctx.oracle.check(key + ".shadow", hex(r.shadowFingerprint));
        ok &= ctx.oracle.check(key + ".viol", hex(r.violationFingerprint));
        return ok;
    });
    pass.opMs.push_back(secondsSince(t0) * 1e3);
    ctx.cal.slice();
}

void
removeJournals(const std::vector<Journal> &js)
{
    for (const Journal &j : js)
        std::remove(j.path.c_str());
}

/** Per-layer figures of the serial and lg2 engines (traced runs). */
void
reportEngines(Context &ctx, const Tally &t, double live_serial_s,
              double replay_serial_s)
{
    Metrics &m = ctx.metrics;
    auto med = [&](auto f) { return t.med(true, f); };
    bool has_live = med([](const Pass &p) { return p.liveRunS; }) > 0;
    bool has_replay = med([](const Pass &p) { return p.replayRunS; }) > 0;
    if (has_live)
        m.set("core.platform_ctor_ms",
              med([](const Pass &p) { return p.liveCtorS; }) * 1e3, "ms");
    if (has_replay)
        m.set("core.replay_ctor_ms",
              med([](const Pass &p) { return p.replayCtorS; }) * 1e3, "ms");
    auto engine = [&](const char *prefix, double Pass::*run,
                      double Pass::*cpu, double serial_s) {
        double run_s = med([&](const Pass &p) { return p.*run; });
        std::string pre = prefix;
        m.set(pre + ".run_s", run_s, "s");
        if (serial_s <= 0)
            return;
        m.set(pre + ".cpu_per_wall", med([&](const Pass &p) {
                  return p.*run > 0 ? p.*cpu / p.*run : 0.0;
              }),
              "ratio");
        m.set(pre + ".vs_serial", run_s / serial_s, "ratio");
    };
    if (has_live)
        engine(live_serial_s > 0 ? "core.live_lg2" : "core.live_serial",
               &Pass::liveRunS, &Pass::liveCpuS, live_serial_s);
    if (has_replay)
        engine(replay_serial_s > 0 ? "core.replay_lg2"
                                   : "core.replay_serial",
               &Pass::replayRunS, &Pass::replayCpuS, replay_serial_s);
}

// ------------------------------------------------------------- traced live

/** Isolated traced-live drivers: workload thread construction and the
 *  kNoMonitoring twin of every cell (the application-only cost). */
void
measureAppLayers(Context &ctx, const std::vector<Cell> &cells,
                 double serial_run_s)
{
    ctx.spans.enabled = true;
    double make_s = 0, twin_s = 0;
    std::uint64_t twin_ops = 0;
    std::map<std::string, std::pair<double, std::uint64_t>> twins;
    for (const Cell &c : cells) {
        WorkloadEnv env;
        env.heapBase = AddressLayout::kHeapBase;
        env.heapBytes = AddressLayout::kHeapBytes;
        env.globalBase = AddressLayout::kGlobalBase;
        env.lockBase = AddressLayout::kLockBase;
        env.barrierBase = AddressLayout::kBarrierBase;
        env.numThreads = kCores;
        env.scale = c.scale;
        env.seed = ctx.opt.seed;
        Clock::time_point t0 = Clock::now();
        {
            Spans::Scope s(ctx.spans, "workloads", "makeThread");
            std::unique_ptr<Workload> w = makeWorkload(c.workload);
            for (ThreadId t = 0; t < kCores; ++t)
                w->makeThread(t, env);
        }
        make_s += secondsSince(t0);

        // The twin depends on workload, memory model and scale only.
        std::string tk = std::string(flagName(c.workload)) + flagName(c.mm) +
                         std::to_string(c.scale);
        auto it = twins.find(tk);
        if (it == twins.end()) {
            PlatformConfig cfg = makeConfig(
                c.workload, c.lifeguard, MonitorMode::kNoMonitoring, kCores,
                cellOptions(c, ctx.opt, 0));
            Platform p(cfg);
            Clock::time_point tr = Clock::now();
            RunResult r;
            {
                Spans::Scope s(ctx.spans, "app", "Platform::run(none)");
                r = p.run();
            }
            it = twins.emplace(tk, std::make_pair(secondsSince(tr),
                                                  r.retiredTotal()))
                     .first;
        }
        twin_s += it->second.first;
        twin_ops += it->second.second;
    }
    ctx.spans.enabled = false;
    ctx.metrics.set("workloads.make_thread_ms", make_s * 1e3, "ms");
    ctx.metrics.set("app.run_s", twin_s, "s");
    ctx.metrics.set("app.ns_per_op",
                    twin_ops ? twin_s * 1e9 / static_cast<double>(twin_ops)
                             : 0.0,
                    "ns");
    ctx.metrics.set("monitor.overhead_s", serial_run_s - twin_s, "s");
}

/** Per-pass layer counters and accelerator ratios (traced runs). */
void
reportLayerCounters(Context &ctx)
{
    auto &L = ctx.layer;
    Metrics &m = ctx.metrics;
    for (const char *k : {"capture.records", "capture.filtered",
                          "capture.with_arcs", "deliver.delivered",
                          "deliver.dep_stalls", "deliver.version_stalls",
                          "accel.it.absorbed", "lifeguard.events_handled",
                          "lifeguard.versions_produced",
                          "lifeguard.versions_consumed"})
        if (L.count(k))
            m.set(k, L[k], "count");
    if (L.count("deliver.ca_waits"))
        m.set("deliver.ca_waits", L["deliver.ca_waits"], "cycles");
    if (L.count("lifeguard.shadow_mb"))
        m.set("lifeguard.shadow_mb", L["lifeguard.shadow_mb"], "MB");
    auto hit_ratio = [&](const std::string &pre) {
        double h = L[pre + ".hits"], miss = L[pre + ".misses"];
        if (h + miss > 0)
            m.set(pre + ".hit_ratio", h / (h + miss), "ratio");
    };
    hit_ratio("accel.if");
    hit_ratio("accel.mtlb");
}

/** Run @p pass with layer counters collected on the first traced pass
 *  only, so counts are per pass. */
std::function<void(Pass &)>
collectOnce(const std::function<void(Pass &, bool)> &pass)
{
    return [pass, collected = false](Pass &p) mutable {
        bool collect = p.traced && !collected;
        collected = collected || collect;
        pass(p, collect);
    };
}

} // namespace

// ================================================================ live

void
runLive(Context &ctx)
{
    std::vector<Cell> cells = liveCells(ctx.opt);
    Tally t;
    recordCells(ctx, t, cells);
    measure(ctx, t, collectOnce([&](Pass &p, bool collect) {
                for (const Cell &c : cells)
                    runCell(ctx, c, 0, p, collect);
            }));
    if (!ctx.opt.trace) {
        reportEndToEnd(ctx, t);
        return;
    }
    reportTraced(ctx, t);
    reportEngines(ctx, t, 0, 0);
    double serial_run = t.med(false, [](const Pass &p) { return p.liveRunS; });
    ctx.metrics.set("trace.record_overhead_s", t.recordS - serial_run, "s");
    measureAppLayers(ctx, cells, serial_run);
    ctx.spans.enabled = true;
    for (const Cell &c : cells)
        if (c.mm == MemoryModel::kSC)
            measureRecordLayers(ctx, c.workload, c.lifeguard, c.scale);
    ctx.spans.enabled = false;
    reportLayerCounters(ctx);
}

// =========================================================== remonitor

void
runRemonitor(Context &ctx)
{
    Tally t;
    std::vector<Journal> js = recordJournals(ctx, t);
    measure(ctx, t, collectOnce([&](Pass &p, bool collect) {
                for (const Journal &j : js) {
                    replayJournal(ctx, j, j.lifeguard, 0, p, collect);
                    replayJournal(ctx, j, LifeguardKind::kAddrCheck, 0, p,
                                  collect);
                }
            }));
    if (!ctx.opt.trace) {
        reportEndToEnd(ctx, t);
    } else {
        reportTraced(ctx, t);
        reportEngines(ctx, t, 0, 0);
        ctx.spans.enabled = true;
        for (const Journal &j : js)
            measureTraceScan(ctx, j.path);
        ctx.spans.enabled = false;
        reportLayerCounters(ctx);
    }
    removeJournals(js);
}

// ================================================================= lg2

void
runLg2(Context &ctx)
{
    Tally t;
    std::vector<Journal> js = recordJournals(ctx, t);
    std::vector<Cell> cells = liveCells(ctx.opt);

    // Serial references: the lg2 engines must reproduce their
    // fingerprints on any seed (the oracle remembers them), and the
    // traced run reports lg2 time relative to them.
    Pass serial;
    for (const Cell &c : cells)
        runCell(ctx, c, 0, serial, false);
    for (const Journal &j : js)
        replayJournal(ctx, j, j.lifeguard, 0, serial, false);

    measure(ctx, t, collectOnce([&](Pass &p, bool collect) {
                for (const Cell &c : cells)
                    runCell(ctx, c, 2, p, collect);
                for (const Journal &j : js)
                    replayJournal(ctx, j, j.lifeguard, 2, p, collect);
            }));
    if (!ctx.opt.trace) {
        reportEndToEnd(ctx, t);
    } else {
        reportTraced(ctx, t);
        reportEngines(ctx, t, serial.liveRunS, serial.replayRunS);
        reportLayerCounters(ctx);
    }
    removeJournals(js);
}

// ============================================================== daemon

namespace {

struct Upload
{
    std::string stem;
    std::string path;
    std::string bytes; ///< committed file contents
    RunResult offline; ///< serial replay of the same file
    double offlineRunMs = 0;
    trace::TraceConfig cfg;
    std::uint32_t format = 0;
};

/** Value of `"field":"..."` or `"field":N` in a flat JSON body. */
std::string
jsonField(const std::string &body, const std::string &field)
{
    std::string pat = "\"" + field + "\":";
    std::size_t at = body.find(pat);
    if (at == std::string::npos)
        return "";
    at += pat.size();
    if (body[at] == '"') {
        std::size_t end = body.find('"', at + 1);
        return body.substr(at + 1, end - at - 1);
    }
    std::size_t end = body.find_first_of(",}]", at);
    return body.substr(at, end - at);
}

std::uint64_t
parseHex(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 16);
}

/** Counter or meter p50 from a fetchStats dump. */
double
statValue(const std::string &dump, const std::string &kind,
          const std::string &metric, const std::string &field = "")
{
    std::istringstream in(dump);
    std::string line;
    std::string head = kind + " " + metric + " ";
    while (std::getline(in, line)) {
        if (line.rfind(head, 0) != 0)
            continue;
        std::string rest = line.substr(head.size());
        if (field.empty())
            return std::strtod(rest.c_str(), nullptr);
        std::size_t at = rest.find(field + "=");
        if (at != std::string::npos)
            return std::strtod(rest.c_str() + at + field.size() + 1,
                               nullptr);
    }
    return 0;
}

std::vector<Upload>
loadCorpus()
{
    std::vector<Upload> ups;
    const std::string dir = "tests/corpus";
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".trace")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto &f : files) {
        Upload u;
        u.stem = f.stem().string();
        u.path = f.string();
        u.bytes = readFile(u.path);
        trace::TraceReader r(u.path);
        if (!r.ok())
            panic("corpus %s: %s", u.path.c_str(), r.error().c_str());
        u.cfg = r.config();
        u.format = r.formatVersion();
        ups.push_back(std::move(u));
    }
    if (ups.empty())
        panic("no corpus recordings under %s", dir.c_str());
    return ups;
}

/** Re-record every corpus cell from its header, best of five;
 *  recordings are byte-deterministic, so each must equal the
 *  committed file. */
double
rerecordCorpus(Context &ctx, const std::vector<Upload> &ups)
{
    return oneTimeSeconds(ctx, 5, ups.size(), [&](std::size_t i) {
        const Upload &u = ups[i];
        std::string path = std::string(kWorkDir) + "/" + u.stem + ".trace";
        guarded(ctx, "record " + u.stem, [&] {
            ExperimentOptions eo;
            eo.scale = u.cfg.scale;
            eo.seed = u.cfg.seed;
            eo.memoryModel = u.cfg.memoryModel;
            recordExperiment(recordSpec(u.cfg.workload, u.cfg.lifeguard,
                                        u.cfg.appThreads, eo, path,
                                        u.format));
            bool same = readFile(path) == u.bytes;
            std::remove(path.c_str());
            return ctx.oracle.check("daemon." + u.stem + ".rerecord",
                                    same ? "identical" : "differs");
        });
    });
}

/** Offline serial replay of each upload: the verdict oracle. */
void
replayCorpusOffline(Context &ctx, std::vector<Upload> &ups)
{
    for (Upload &u : ups) {
        guarded(ctx, "offline " + u.stem, [&] {
            ReplayConfig rc;
            rc.path = u.path;
            ReplayPlatform rp(std::move(rc));
            Clock::time_point t0 = Clock::now();
            u.offline = rp.run();
            u.offlineRunMs = secondsSince(t0) * 1e3;
            std::string key = "daemon." + u.stem;
            return ctx.oracle.check(key + ".shadow",
                                    hex(u.offline.shadowFingerprint)) &
                   ctx.oracle.check(key + ".viol",
                                    hex(u.offline.violationFingerprint));
        });
    }
}

/** Daemon start and teardown around one pass of uploads. */
class DaemonRun
{
  public:
    explicit DaemonRun(const daemon::DaemonConfig &cfg) : d_(cfg) {}
    ~DaemonRun()
    {
        if (thread_.joinable()) {
            d_.requestStop();
            thread_.join();
        }
    }
    DaemonRun(const DaemonRun &) = delete;
    DaemonRun &operator=(const DaemonRun &) = delete;

    void
    start()
    {
        if (!d_.start())
            panic("daemon start: %s", d_.error().c_str());
        thread_ = std::thread([this] { d_.run(); });
    }

  private:
    daemon::Daemon d_;
    std::thread thread_;
};

} // namespace

void
runDaemon(Context &ctx)
{
    std::vector<Upload> ups = loadCorpus();
    Tally t;
    t.pooledLatency = true;
    t.recordS = rerecordCorpus(ctx, ups);
    replayCorpusOffline(ctx, ups);
    for (const Upload &u : ups) {
        t.traceBytes += u.bytes.size();
        t.traceRecords += recordsOf(u.offline);
    }
    daemon::DaemonConfig dc;
    dc.socketPath = std::string(kWorkDir) + "/paralogd.sock";
    dc.workers = 1; // one closed-loop client: one job at a time
    dc.quiet = true;
    std::vector<double> start_ms, overhead_ms, job_p50;
    double shed = 0, rejected = 0, failed = 0;
    std::mt19937_64 rng(ctx.opt.seed);

    measure(ctx, t, [&](Pass &p) {
        std::vector<const Upload *> order;
        for (const Upload &u : ups)
            order.push_back(&u);
        std::shuffle(order.begin(), order.end(), rng);

        Clock::time_point ts = Clock::now();
        std::optional<DaemonRun> d;
        {
            Spans::Scope s(ctx.spans, "daemon", "Daemon::start");
            d.emplace(dc);
            d->start();
        }
        p.daemonStartS = secondsSince(ts);
        if (p.traced)
            start_ms.push_back(p.daemonStartS * 1e3);

        daemon::SubmitOptions so;
        so.socketPath = dc.socketPath;
        for (const Upload *u : order) {
            Spans::Scope op(ctx.spans, "bench", "upload " + u->stem);
            Clock::time_point t0 = Clock::now();
            daemon::SubmitResult sr;
            {
                Spans::Scope s(ctx.spans, "daemon", "submitTrace");
                sr = daemon::submitTrace(u->path, so);
            }
            double ms = secondsSince(t0) * 1e3;
            p.verdictS += ms / 1e3;
            p.opMs.push_back(ms);
            if (p.traced)
                overhead_ms.push_back(ms - u->offlineRunMs);
            p.retired += u->offline.retiredTotal();
            p.records += std::strtoull(
                jsonField(sr.responseJson, "records").c_str(), nullptr, 10);
            Spans::Scope s(ctx.spans, "bench", "check");
            bool ok = sr.ok && sr.status() == "ok" &&
                      parseHex(jsonField(sr.responseJson,
                                         "shadowFingerprint")) ==
                          u->offline.shadowFingerprint &&
                      parseHex(jsonField(sr.responseJson,
                                         "violationFingerprint")) ==
                          u->offline.violationFingerprint;
            if (!ok)
                std::fprintf(stderr, "perfbench: upload %s: %s %s\n",
                             u->stem.c_str(), sr.error.c_str(),
                             sr.responseJson.c_str());
            ctx.oracle.op(ok);
            ctx.cal.slice();
        }
        if (p.traced) {
            std::string dump, err;
            if (daemon::fetchStats(dc.socketPath, dump, err)) {
                shed += statValue(dump, "counter", "daemon.jobs.shed");
                rejected +=
                    statValue(dump, "counter", "daemon.sessions.rejected");
                failed += statValue(dump, "counter", "daemon.jobs.failed");
                for (LifeguardKind lg :
                     {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
                      LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
                    double v = statValue(
                        dump, "meter",
                        std::string("daemon.lg.") + toString(lg) + ".ms",
                        "p50");
                    if (v > 0)
                        job_p50.push_back(v);
                }
            }
        }
        Spans::Scope s(ctx.spans, "daemon", "Daemon::stop");
        d.reset();
    });
    std::filesystem::remove_all(dc.socketPath + ".spool");

    if (!ctx.opt.trace) {
        reportEndToEnd(ctx, t);
        return;
    }
    reportTraced(ctx, t);
    Metrics &m = ctx.metrics;
    m.set("daemon.start_ms", median(start_ms), "ms");
    m.set("daemon.job_ms_p50", median(job_p50), "ms");
    m.set("daemon.overhead_ms_p50", median(overhead_ms), "ms");
    m.set("daemon.shed", shed, "count");
    m.set("daemon.rejected", rejected, "count");
    m.set("daemon.failed", failed, "count");

    // StreamIngest validation over each upload's bytes, isolated.
    ctx.spans.enabled = true;
    double ingest_s = 0;
    std::uint64_t ingest_bytes = 0;
    for (const Upload &u : ups) {
        Spans::Scope s(ctx.spans, "daemon", "StreamIngest");
        Clock::time_point t0 = Clock::now();
        trace::StreamIngest ing;
        bool ok = ing.feed(reinterpret_cast<const std::uint8_t *>(
                               u.bytes.data()),
                           u.bytes.size()) &&
                  ing.finish();
        ingest_s += secondsSince(t0);
        ingest_bytes += u.bytes.size();
        ctx.oracle.op(ok);
    }
    m.set("daemon.ingest_mb_per_s",
          ingest_s > 0 ? static_cast<double>(ingest_bytes) / ingest_s / 1e6
                       : 0.0,
          "MB/s");
    for (const Upload &u : ups)
        measureTraceScan(ctx, u.path);
    ctx.spans.enabled = false;
}

} // namespace perfbench
