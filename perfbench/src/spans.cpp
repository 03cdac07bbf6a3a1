#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5"; // reset the peak resident set to the current one
    out.flush();
    return static_cast<bool>(out);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

// ------------------------------------------------------------- Oracle

void
Oracle::loadExpectations(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        expected_[line.substr(0, sp)] = line.substr(sp + 1);
    }
}

bool
Oracle::check(const std::string &key, const std::string &value)
{
    auto [it, fresh] = seen_.emplace(key, value);
    const char *why = nullptr;
    std::string want;
    if (!fresh && it->second != value) {
        why = "differs from an earlier pass";
        want = it->second;
    }
    if (auto e = expected_.find(key); e != expected_.end() &&
                                      e->second != value) {
        why = "differs from the pinned value";
        want = e->second;
    }
    if (!why)
        return true;
    if (logged_++ < 20)
        std::fprintf(stderr, "perfbench: %s %s: got %s, want %s\n",
                     key.c_str(), why, value.c_str(), want.c_str());
    return false;
}

// -------------------------------------------------------------- Spans

Spans::Scope::Scope(Spans &s, const char *layer, std::string name)
    : spans_(s)
{
    if (!s.enabled)
        return;
    live_ = true;
    idx_ = s.spans_.size();
    std::int64_t parent =
        s.stack_.empty() ? -1 : static_cast<std::int64_t>(s.stack_.back());
    s.spans_.push_back(
        Span{layer, std::move(name), secondsSince(s.epoch_), 0, parent});
    s.stack_.push_back(idx_);
}

Spans::Scope::~Scope()
{
    if (!live_)
        return;
    spans_.spans_[idx_].t1 = secondsSince(spans_.epoch_);
    spans_.stack_.pop_back();
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].layer] += spans_[i].t1 - spans_[i].t0 - child[i];
    return self;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << s.layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<std::uint64_t>(s.t0 * 1e6)
            << ",\"dur\":" << static_cast<std::uint64_t>((s.t1 - s.t0) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --------------------------------------------------------- Calibrator

namespace {

std::uint64_t
lcg(std::uint64_t &x)
{
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 32;
}

} // namespace

Calibrator::Calibrator() : mem_(1 << 16), table_(1 << 19), prog_(512)
{
    std::uint64_t x = 12345;
    for (std::uint32_t &ins : prog_)
        ins = static_cast<std::uint32_t>(lcg(x));
    for (std::uint64_t &v : table_)
        v = lcg(x);
}

void
Calibrator::slice()
{
    constexpr std::size_t kLine = 64;
    Clock::time_point tw = Clock::now();
    kernel();
    std::uint64_t touch = 0;
    for (std::size_t i = 0; i < mem_.size(); i += kLine / sizeof(mem_[0]))
        touch += mem_[i];
    for (std::size_t i = 0; i < table_.size();
         i += kLine / sizeof(table_[0]))
        touch += table_[i];
    // Folding the warm-up sum into the state keeps its loads live.
    state_ ^= touch & 1;
    Clock::time_point t0 = Clock::now();
    kernel();
    times_.push_back(secondsSince(t0));
    spent_ += secondsSince(tw);
}

void
Calibrator::kernel()
{
    constexpr int kSteps = 90000;
    std::uint64_t regs[16] = {};
    regs[0] = state_;
    std::uint32_t pc = static_cast<std::uint32_t>(state_) & 511;
    const std::size_t mask = table_.size() - 1;
    for (int i = 0; i < kSteps; ++i) {
        std::uint32_t ins = prog_[pc];
        unsigned a = ins & 15, b = (ins >> 4) & 15, c = (ins >> 8) & 15;
        std::uint32_t off = ins >> 16;
        switch ((ins >> 12) & 7) {
          case 0: regs[a] = regs[b] + regs[c] + ins; break;
          case 1: regs[a] = regs[b] * 0x9E3779B97F4A7C15ULL; break;
          case 2: regs[a] = mem_[(regs[b] + off) & 0xFFFF]; break;
          case 3:
            mem_[(regs[b] + off) & 0xFFFF] = static_cast<std::uint32_t>(regs[a]);
            break;
          case 4:
            if (regs[a] & 1)
                pc = off & 511;
            break;
          case 5: regs[a] ^= regs[b] >> 7; break;
          case 6: {
              std::uint64_t h = (regs[a] ^ regs[c]) * 1099511628211ULL;
              regs[c] += table_[h & mask] + table_[(h + 1) & mask];
              break;
          }
          default: regs[a] = regs[b] - regs[c]; break;
        }
        pc = (pc + 1) & 511;
    }
    state_ = regs[0] ^ regs[7] ^ pc;
}

double
Calibrator::medianSince(std::uint64_t first) const
{
    return median(std::vector<double>(
        times_.begin() + static_cast<std::ptrdiff_t>(first), times_.end()));
}

// ------------------------------------------------------------ Metrics

void
Metrics::set(const std::string &name, double value, const char *unit)
{
    if (!values_.count(name))
        order_.push_back(name);
    values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

bool
Metrics::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const auto &[value, unit] = values_.at(order_[i]);
        os << (i ? ", " : "") << '"' << order_[i] << "\": {\"value\": "
           << value << ", \"unit\": \"" << unit << "\"}";
    }
    os << '}';
    return os.str();
}

} // namespace perfbench
