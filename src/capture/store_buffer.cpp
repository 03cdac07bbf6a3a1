#include "capture/store_buffer.hpp"

#include "common/logging.hpp"

namespace paralog {

TsoDataPath::TsoDataPath(const SimConfig &cfg, MemorySystem &mem,
                         TsoHooks &hooks, std::uint32_t num_cores)
    : cfg_(cfg), mem_(mem), hooks_(hooks), buffers_(num_cores),
      lastTid_(num_cores, kInvalidThread)
{
}

DataPath::LoadResult
TsoDataPath::load(CoreId core, Addr addr, unsigned size,
                  const AccessTag &tag)
{
    // Store-to-load forwarding: newest matching store wins.
    auto &buf = buffers_[core];
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
        const Entry &e = *it;
        Addr e_end = e.addr + e.size;
        if (addr >= e.addr && addr + size <= e_end) {
            LoadResult r;
            r.value = (e.value >> (8 * (addr - e.addr))) &
                      ((size >= 8) ? ~0ULL : ((1ULL << (8 * size)) - 1));
            r.access.latency = 1;
            forwardsCtr_.inc();
            return r;
        }
        if (addr < e_end && e.addr < addr + size) {
            // Partial overlap: drain and fall through to memory.
            fence(core);
            break;
        }
    }
    LoadResult r;
    r.access = mem_.access(core, addr, size, false, tag, true);
    r.value = mem_.memory().read(addr, size);
    return r;
}

AccessResult
TsoDataPath::store(CoreId core, Addr addr, unsigned size,
                   std::uint64_t value, const AccessTag &tag)
{
    PARALOG_ASSERT(storeSpace(core), "store buffer overflow on core %u",
                   core);
    auto &buf = buffers_[core];
    Entry e{addr, size, value, tag, tag.retireCycle + cfg_.storeDrainDelay};
    buf.push_back(e);
    updateVisibility(core);
    bufferedStoresCtr_.inc();
    // The store itself retires immediately under TSO; coherence cost is
    // paid in the background at drain time.
    AccessResult r;
    r.latency = 1;
    return r;
}

bool
TsoDataPath::storeSpace(CoreId core) const
{
    return buffers_[core].size() < cfg_.storeBufferEntries;
}

Cycle
TsoDataPath::fence(CoreId core)
{
    Cycle total = 0;
    while (!buffers_[core].empty()) {
        total += cfg_.storeDrainDelay;
        drainOne(core);
    }
    return total;
}

void
TsoDataPath::pump(CoreId core, Cycle now)
{
    auto &buf = buffers_[core];
    if (!buf.empty() && buf.front().readyAt <= now)
        drainOne(core);
}

void
TsoDataPath::drainOne(CoreId core)
{
    auto &buf = buffers_[core];
    PARALOG_ASSERT(!buf.empty(), "drain of empty store buffer");
    Entry e = buf.front();
    buf.pop_front();

    AccessResult ar = mem_.access(core, e.addr, e.size, true, e.tag, true);
    mem_.memory().write(e.addr, e.size, e.value);
    if (!ar.arcs.empty())
        hooks_.attachArcsToPending(e.tag.tid, e.tag.rid, ar.arcs);
    for (const VersionRequest &req : ar.versionRequests) {
        versionRequestsCtr_.inc();
        hooks_.onScViolation(e.tag.tid, e.tag.rid, e.addr,
                             static_cast<std::uint8_t>(e.size), req);
    }
    drainsCtr_.inc();
    updateVisibility(core);
}

void
TsoDataPath::updateVisibility(CoreId core)
{
    auto &buf = buffers_[core];
    if (buf.empty()) {
        // No pending stores: everything this thread retired is visible.
        if (lastTid_[core] != kInvalidThread)
            hooks_.setVisibilityLimit(lastTid_[core], kInvalidRecord);
        return;
    }
    lastTid_[core] = buf.front().tag.tid;
    hooks_.setVisibilityLimit(buf.front().tag.tid, buf.front().tag.rid);
}

} // namespace paralog
