#include "common/stats.hpp"

#include <algorithm>
#include <cstdio>

#include "common/bitops.hpp"

namespace paralog {

void
Histogram::sample(std::uint64_t v)
{
    unsigned b = (v <= 1) ? 0 : floorLog2(v);
    if (b >= buckets_.size())
        b = static_cast<unsigned>(buckets_.size()) - 1;
    ++buckets_[b];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

std::uint64_t
Histogram::percentile(double frac) const
{
    if (count_ == 0)
        return 0;
    std::uint64_t need =
        static_cast<std::uint64_t>(frac * static_cast<double>(count_));
    if (need == 0)
        need = 1;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= need) {
            std::uint64_t upper =
                b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{2} << b) - 1;
            return std::min(upper, max_);
        }
    }
    return max_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ULL;
    max_ = 0;
}

Counter &
StatSet::counterSlow(const char *name)
{
    std::lock_guard<std::mutex> lock(initMutex_);
    // Re-scan under the lock: another thread may have published this
    // name between our lock-free miss and acquiring initMutex_.
    std::size_t i = 0;
    for (; i < counterMemo_.size(); ++i) {
        const char *n = counterMemo_[i].name.load(std::memory_order_relaxed);
        if (n == nullptr)
            break;
        if (n == name)
            return *counterMemo_[i].value;
    }
    Counter &c = counters_[name];
    if (i < counterMemo_.size()) {
        // Publish value first, then the name with release: a reader
        // that acquires the name sees a complete slot. Overflow just
        // skips memoization — lookups fall through to this slow path.
        counterMemo_[i].value = &c;
        counterMemo_[i].name.store(name, std::memory_order_release);
    }
    return c;
}

Histogram &
StatSet::histogramSlow(const char *name)
{
    std::lock_guard<std::mutex> lock(initMutex_);
    std::size_t i = 0;
    for (; i < histogramMemo_.size(); ++i) {
        const char *n =
            histogramMemo_[i].name.load(std::memory_order_relaxed);
        if (n == nullptr)
            break;
        if (n == name)
            return *histogramMemo_[i].value;
    }
    Histogram &h = histograms_[name];
    if (i < histogramMemo_.size()) {
        histogramMemo_[i].value = &h;
        histogramMemo_[i].name.store(name, std::memory_order_release);
    }
    return h;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(initMutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatSet::reset()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
StatSet::render(std::ostream &os, std::initializer_list<Gauge> gauges) const
{
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    std::lock_guard<std::mutex> lock(initMutex_);
    for (const auto &[name, c] : counters_)
        os << "counter " << prefix << name << ' ' << c.value() << '\n';
    for (const auto &[name, v] : gauges)
        os << "gauge " << prefix << name << ' ' << v << '\n';
    for (const auto &[name, h] : histograms_) {
        char mean[32];
        std::snprintf(mean, sizeof(mean), "%.1f", h.mean());
        os << "meter " << prefix << name << " count=" << h.count()
           << " sum=" << h.sum() << " mean=" << mean << " min=" << h.min()
           << " p50=" << h.percentile(0.50) << " p90=" << h.percentile(0.90)
           << " p99=" << h.percentile(0.99) << " max=" << h.max() << '\n';
    }
}

} // namespace paralog
