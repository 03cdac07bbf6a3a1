/**
 * @file
 * Lightweight named statistics: scalar counters and histograms, grouped
 * into a StatSet that tests inspect and long-running services render
 * as text (StatSet::render, the `paralogd` PLSTATS1 wire format).
 *
 * One idiom: a simulation component binds each of its counters once,
 * as a `Counter &` member initialized from its own StatSet, and bumps
 * the reference on the hot path. Name lookup (a mutex and a map walk)
 * is for services, tests and post-run readers.
 */

#ifndef PARALOG_COMMON_STATS_HPP
#define PARALOG_COMMON_STATS_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace paralog {

/**
 * Order-invariant min / median / max summary of repeated samples (the
 * `--repeat` aggregation of the scenario-matrix runner). Samples are
 * sorted on demand, so the summary is identical no matter which order
 * concurrent repeats complete in. Median is the lower middle element —
 * exact and integer-valued for any repeat count.
 */
template <typename T>
class SampleSummaryT
{
  public:
    void
    add(T v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }
    T min() const { return samples_.empty() ? T{} : sorted().front(); }
    T max() const { return samples_.empty() ? T{} : sorted().back(); }

    T
    median() const
    {
        if (samples_.empty())
            return T{};
        return sorted()[(samples_.size() - 1) / 2];
    }

    /** True iff every sample equals every other (deterministic repeats
     *  of the same configuration must satisfy this). */
    bool
    allEqual() const
    {
        return samples_.empty() || sorted().front() == sorted().back();
    }

  private:
    const std::vector<T> &
    sorted() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
        return samples_;
    }

    mutable std::vector<T> samples_;
    mutable bool sorted_ = true;
};

using SampleSummary = SampleSummaryT<std::uint64_t>;
using WallClockSummary = SampleSummaryT<double>;

/**
 * Monotonic scalar counter. Backed by a relaxed atomic so that
 * monitor-side counters can be *sampled* from another host thread
 * (the concurrent-mode progress watchdog) without a data race.
 * Writers are still expected to be serialized per counter — each
 * counter has a single owning thread or is updated under its
 * component's mutex — the atomic only makes cross-thread sampling
 * well-defined, not concurrent increments contention-proof. inc()
 * uses an atomic RMW anyway so an accidental second writer degrades
 * to a benign ordering question instead of lost updates.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Power-of-two bucketed histogram: bucket k counts samples in
 * [2^k, 2^(k+1)) with bucket 0 holding samples of 0 and 1. Single
 * writer: a histogram shared between threads needs its owner's lock
 * around sample() and every read.
 */
class Histogram
{
  public:
    Histogram() : buckets_(64, 0) {}

    void sample(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /** Upper bound of the first bucket at which the cumulative count
     *  reaches frac of the samples, clamped to max() so it never
     *  exceeds the largest value seen (0 when empty). */
    std::uint64_t percentile(double frac) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * A named group of counters and histograms. Lookup lazily creates the
 * entry; map nodes never move, so a returned reference stays valid for
 * the set's lifetime and is safe to bind once.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name = "") : name_(std::move(name)) {}

    Counter &
    counter(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return counters_[name];
    }
    Histogram &
    histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return histograms_[name];
    }

    /** Counter value, 0 when never touched. Safe while other threads
     *  first-touch new names. */
    std::uint64_t get(const std::string &name) const;

    /** Unlocked view for single-threaded inspection after a run. */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    void reset();

    /** A gauge line's name and its value, computed by the caller. */
    using Gauge = std::pair<const char *, std::int64_t>;

    /**
     * Render every entry, names prefixed with "<set name>.":
     *
     *   counter <name> <value>
     *   gauge <name> <value>
     *   meter <name> count=N sum=N mean=F min=N p50=N p90=N p99=N max=N
     *
     * Counters and meters come in name order, @p gauges in the order
     * given. Safe while other threads first-touch names or bump
     * counters; a histogram sampled by another thread needs that
     * thread's lock held around this call.
     */
    void render(std::ostream &os, std::initializer_list<Gauge> gauges = {})
        const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    /// Guards the maps: insertion, get(), reset() and render().
    mutable std::mutex mutex_;
};

} // namespace paralog

#endif // PARALOG_COMMON_STATS_HPP
