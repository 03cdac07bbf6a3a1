/**
 * @file
 * Shared pieces of the repository benchmark driver: options, the
 * output oracle, span tracing, metric collection and the four
 * workloads. Every measurement times a public call into paralog_core
 * from these files; nothing here reaches inside src/.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Scratch directory for journals, spools and the span file, relative
/// to the repository root the driver runs from.
inline constexpr const char *kWorkDir = ".bench_build/perfbench-work";

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU seconds (user + system, all threads). */
double processCpuSeconds();

/**
 * Restart the peak-resident-set count from the current resident set
 * (freed heap returned to the kernel first), so peakRssMb() covers only
 * what runs after the call. False if the kernel refuses the reset.
 */
bool resetPeakRss();

/** Peak resident set of this process since the last reset, in MB. */
double peakRssMb();

double median(std::vector<double> v);
/** Linearly interpolated percentile, @p q in [0, 1]. */
double percentile(std::vector<double> v, double q);

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Divides every scale (self-test runs use a tiny grid).
    std::uint64_t scaleDiv = 1;
    /// Expected observables (`key value` lines); empty = none pinned.
    std::string expectFile;
    /// Print `pin <key> <value>` for every observable and exit.
    bool pin = false;
};

/**
 * The output oracle. Every operation reports its observables (CSV row,
 * shadow and violation fingerprints) under a stable key; a value must
 * equal the pinned expectation when one is loaded, and must equal the
 * value the same key produced earlier in this run (passes repeat the
 * same operations, so any drift is a failure).
 */
class Oracle
{
  public:
    void loadExpectations(const std::string &path);

    /** Check one observable; false (and a logged reason) on mismatch. */
    bool check(const std::string &key, const std::string &value);

    /** Record an operation outcome. */
    void
    op(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Pin mode: every observable seen so far, first value wins. */
    const std::map<std::string, std::string> &seen() const { return seen_; }

  private:
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    int logged_ = 0;
};

/**
 * In-memory span recorder for the traced run. A span names the layer
 * whose public call it times; spans nest through a stack, so a layer's
 * self time is its span time minus its children's. Written once, as
 * Chrome trace-event JSON, when the run ends.
 */
class Spans
{
  public:
    bool enabled = false;

    class Scope
    {
      public:
        Scope(Spans &s, const char *layer, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::size_t idx_ = 0;
        bool live_ = false;
    };

    /** Self seconds per layer over every recorded span. */
    std::map<std::string, double> selfSeconds() const;

    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *layer;
        std::string name;
        double t0;
        double t1;
        std::int64_t parent;
    };
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    Clock::time_point epoch_ = Clock::now();
};

/**
 * Host-speed reference. The benchmark host's CPU speed drifts by tens
 * of percent from one run to the next (shared cores, frequency
 * changes), which would swamp the effects the benchmark is meant to
 * show. After every operation the workloads run one fixed slice of a
 * calibration kernel that shares no code with paralog: a small
 * interpreter dispatching a fixed pseudo-random program over a 256 KB
 * memory and probing a 4 MB table, the dispatch, cache and hashing mix
 * the simulator spends its time on. Before each timed slice an untimed
 * warm-up runs the kernel once and reads every cache line of both
 * arrays, so the timed run starts with warm caches and branch
 * predictors whatever the operation before it left behind. A time t
 * measured next to slices whose median took c seconds is reported as
 * t * kNominalSliceS / c: host seconds on a host whose slice takes
 * exactly kNominalSliceS (about what it takes on a 2.1 GHz Xeon). The
 * median, not the sum, so one slice that the scheduler interrupts does
 * not skew the figure.
 */
class Calibrator
{
  public:
    static constexpr double kNominalSliceS = 0.0002;

    Calibrator();

    /** Warm up, then run one timed slice. */
    void slice();

    /** Slices run so far. */
    std::uint64_t slices() const { return times_.size(); }

    /** Median wall seconds of the slices from index @p first on. */
    double medianSince(std::uint64_t first) const;

    /** Wall seconds spent in slice() overall, warm-ups included. */
    double spent() const { return spent_; }

  private:
    /** One run of the calibration program. */
    void kernel();

    std::vector<std::uint32_t> mem_;
    std::vector<std::uint64_t> table_;
    std::vector<std::uint32_t> prog_;
    std::uint64_t state_ = 0;
    std::vector<double> times_;
    double spent_ = 0;
};

/** Named metrics with units, printed in insertion order. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit);
    bool has(const std::string &name) const;
    std::string json() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, const char *>> values_;
};

/** Everything a workload needs while it runs. */
struct Context
{
    Options opt;
    Oracle oracle;
    Spans spans;
    Metrics metrics;
    Calibrator cal;
    /// Per-layer accumulators filled by the traced run.
    std::map<std::string, double> layer;
};

void runLive(Context &ctx);
void runRemonitor(Context &ctx);
void runLg2(Context &ctx);
void runDaemon(Context &ctx);

/** Isolated per-layer drivers over one SC cell's captured records
 *  (traced live runs only). */
void measureRecordLayers(Context &ctx, paralog::WorkloadKind workload,
                         paralog::LifeguardKind lifeguard,
                         std::uint64_t scale);

/** Traced-run drivers that time one trace file's open and scan. */
void measureTraceScan(Context &ctx, const std::string &path);

/** Hex rendering used by every fingerprint key. */
std::string hex(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
