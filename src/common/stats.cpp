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

std::uint64_t
StatSet::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatSet::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
StatSet::render(std::ostream &os, std::initializer_list<Gauge> gauges) const
{
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    std::lock_guard<std::mutex> lock(mutex_);
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
