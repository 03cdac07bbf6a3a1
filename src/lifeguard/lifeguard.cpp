#include "lifeguard/lifeguard.hpp"

#include <algorithm>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "lifeguard/addrcheck.hpp"
#include "lifeguard/lockset.hpp"
#include "lifeguard/memcheck.hpp"
#include "lifeguard/taintcheck.hpp"

namespace paralog {

std::size_t
ViolationLog::count(Violation::Kind kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Violation &v : violations_) {
        if (v.kind == kind)
            ++n;
    }
    return n;
}

std::uint64_t
ViolationLog::setFingerprint() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> keys;
    keys.reserve(violations_.size());
    for (const Violation &v : violations_)
        keys.push_back((static_cast<std::uint64_t>(v.kind) << 56) ^
                       (static_cast<std::uint64_t>(v.tid) << 48) ^
                       static_cast<std::uint64_t>(v.addr));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::uint64_t h = kFnv1aOffsetBasis;
    for (std::uint64_t key : keys) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (key >> (8 * byte)) & 0xFF;
            h *= kFnvPrime;
        }
    }
    return h;
}

LgContext::LgContext(ShadowMemory &shadow, MetadataTlb &mtlb,
                     VersionStore &versions, MemorySystem *mem, CoreId core)
    : shadow_(shadow), mtlb_(mtlb), versions_(versions), mem_(mem),
      core_(core)
{
}

void
LgContext::beginEvent()
{
    instrs_ = 0;
    memCycles_ = 0;
}

Cycle
LgContext::metaCacheAccess(Addr meta_addr, unsigned bytes, bool is_write)
{
    Cycle latency = 0;
    if (metaOracle_) {
        latency = metaOracle_();
    } else if (mem_) {
        latency = mem_->access(core_, meta_addr, bytes, is_write,
                               AccessTag{}, false)
                      .latency;
    }
    if (metaTee_)
        metaTee_(latency);
    memCycles_ += latency;
    return latency;
}

void
LgContext::touchMeta(Addr app_addr, unsigned app_bytes, bool is_write)
{
    // Metadata address computation: M-TLB hit is ~1 handler instruction,
    // a miss pays the two-level table walk.
    instrs_ += mtlb_.lookupCost(app_addr);
    if (!mem_ && !metaOracle_ && !metaTee_)
        return;
    unsigned meta_bytes =
        std::max<unsigned>(1, (app_bytes * shadow_.bitsPerByte() + 7) / 8);
    metaCacheAccess(shadow_.metaAddr(app_addr), meta_bytes, is_write);
}

std::uint64_t
LgContext::loadMeta(Addr app_addr, unsigned bytes)
{
    touchMeta(app_addr, bytes, false);
    instrs_ += 1;
    return shadow_.readPacked(app_addr, bytes);
}

void
LgContext::storeMeta(Addr app_addr, unsigned bytes, std::uint64_t bits)
{
    touchMeta(app_addr, bytes, true);
    instrs_ += 1;
    shadow_.writePacked(app_addr, bytes, bits);
}

std::uint64_t
LgContext::loadMetaUnion(const MetaSrc *srcs, unsigned n)
{
    std::uint64_t bits = 0;
    Addr touched[kItMaxSources];
    unsigned ntouched = 0;
    for (unsigned i = 0; i < n; ++i) {
        Addr word = shadow_.metaAddr(srcs[i].addr) & ~7ULL;
        bool seen = false;
        for (unsigned j = 0; j < ntouched; ++j) {
            if (touched[j] == word)
                seen = true;
        }
        if (!seen) {
            touched[ntouched++] = word;
            touchMeta(srcs[i].addr, srcs[i].size, false);
        }
        instrs_ += 1;
        bits |= shadow_.readPacked(srcs[i].addr, srcs[i].size);
    }
    return bits;
}

bool
LgContext::metaAllEqual(const MetaSrc *srcs, unsigned n, std::uint8_t value)
{
    bool all = true;
    Addr touched[kItMaxSources];
    unsigned ntouched = 0;
    for (unsigned i = 0; i < n; ++i) {
        Addr word = shadow_.metaAddr(srcs[i].addr) & ~7ULL;
        bool seen = false;
        for (unsigned j = 0; j < ntouched; ++j) {
            if (touched[j] == word)
                seen = true;
        }
        if (!seen) {
            touched[ntouched++] = word;
            touchMeta(srcs[i].addr, srcs[i].size, false);
        }
        instrs_ += 1;
        AddrRange r{srcs[i].addr, srcs[i].addr + srcs[i].size};
        all = all && shadow_.rangeAll(r, value);
    }
    return all;
}

bool
LgContext::consumeVersioned(const LgEvent &ev, VersionStore::Versioned &out)
{
    if (!ev.consumesVersion || !versions_.available(ev.version))
        return false;
    out = versions_.consume(ev.version);
    // Version buffer read: cheaper than a metadata cache miss, dearer
    // than a register (matches the kProduceVersion handler charges).
    instrs_ += 4;
    return true;
}

std::uint8_t
LgContext::versionedByte(const VersionStore::Versioned &v, Addr addr)
{
    if (addr >= v.addr && addr < v.addr + v.size) {
        unsigned off = static_cast<unsigned>(addr - v.addr);
        unsigned shift = off * shadow_.bitsPerByte();
        std::uint64_t mask = (1ULL << shadow_.bitsPerByte()) - 1;
        return static_cast<std::uint8_t>((v.bits >> shift) & mask);
    }
    // Snapshot does not cover this byte: the conflicting store wrote a
    // different part of the cache line, so live metadata is current.
    return static_cast<std::uint8_t>(loadMeta(addr, 1));
}

std::uint64_t
LgContext::versionedPacked(const VersionStore::Versioned &v, Addr addr,
                           unsigned bytes)
{
    unsigned bpb = shadow_.bitsPerByte();
    if (addr >= v.addr && addr + bytes <= v.addr + v.size) {
        unsigned width = bytes * bpb;
        std::uint64_t mask =
            (width >= 64) ? ~0ULL : ((1ULL << width) - 1);
        return (v.bits >> ((addr - v.addr) * bpb)) & mask;
    }
    if (addr + bytes <= v.addr || addr >= v.addr + v.size)
        return loadMeta(addr, bytes);
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        bits |= static_cast<std::uint64_t>(versionedByte(v, addr + i))
                << (i * bpb);
    }
    return bits;
}

void
LgContext::produceSnapshot(const LgEvent &ev)
{
    std::uint64_t bits = loadMeta(ev.addr, ev.size);
    versions_.produce(ev.version,
                      VersionStore::Versioned{bits, ev.addr, ev.size});
    charge(4);
}

void
LgContext::fillMeta(const AddrRange &range, std::uint8_t value)
{
    if (range.empty())
        return;
    instrs_ += 4;
    // One store (and one cache access) per 64-byte metadata line.
    Addr meta_begin = shadow_.metaAddr(range.begin);
    Addr meta_end = shadow_.metaAddr(range.end - 1) + 1;
    for (Addr m = meta_begin & ~63ULL; m < meta_end; m += 64) {
        instrs_ += 2;
        metaCacheAccess(m, 8, true);
    }
    shadow_.fill(range, value);
}

bool
LgContext::checkMetaAll(const AddrRange &range, std::uint8_t value)
{
    if (range.empty())
        return true;
    instrs_ += 3;
    Addr meta_begin = shadow_.metaAddr(range.begin);
    Addr meta_end = shadow_.metaAddr(range.end - 1) + 1;
    for (Addr m = meta_begin & ~63ULL; m < meta_end; m += 64) {
        instrs_ += 1;
        metaCacheAccess(m, 8, false);
    }
    return shadow_.rangeAll(range, value);
}

Lifeguard::Lifeguard(std::uint32_t num_threads,
                     std::uint32_t bits_per_byte)
    : shadow_(bits_per_byte), regMeta_(num_threads)
{
    for (auto &regs : regMeta_)
        regs.fill(0);
}

std::uint8_t &
Lifeguard::regMeta(ThreadId tid, RegId reg)
{
    PARALOG_ASSERT(tid < regMeta_.size() && reg < kNumRegs,
                   "bad register metadata index (%u, %u)", tid, reg);
    return regMeta_[tid][reg];
}

LifeguardPtr
makeLifeguard(LifeguardKind kind, std::uint32_t num_threads)
{
    switch (kind) {
      case LifeguardKind::kTaintCheck:
        return std::make_unique<TaintCheck>(num_threads);
      case LifeguardKind::kAddrCheck:
        return std::make_unique<AddrCheck>(num_threads);
      case LifeguardKind::kMemCheck:
        return std::make_unique<MemCheck>(num_threads);
      case LifeguardKind::kLockSet:
        return std::make_unique<LockSet>(num_threads);
    }
    panic("unknown lifeguard kind");
}

const char *
toString(LifeguardKind kind)
{
    switch (kind) {
      case LifeguardKind::kTaintCheck: return "TaintCheck";
      case LifeguardKind::kAddrCheck: return "AddrCheck";
      case LifeguardKind::kMemCheck: return "MemCheck";
      case LifeguardKind::kLockSet: return "LockSet";
    }
    return "?";
}

} // namespace paralog
