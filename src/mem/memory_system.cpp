#include "mem/memory_system.hpp"

#include "common/logging.hpp"

namespace paralog {

MemorySystem::MemorySystem(const SimConfig &cfg, std::uint32_t num_cores)
    : cfg_(cfg), numCores_(num_cores),
      coreCounter_(num_cores, 0), coreThread_(num_cores, kInvalidThread)
{
    PARALOG_ASSERT(num_cores >= 1 && num_cores <= 32,
                   "unsupported core count %u", num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            cfg.l1d, strprintf("l1d.%u", c)));
    }
    l2_ = std::make_unique<Cache>(cfg.l2, "l2");
}

void
MemorySystem::bindThread(CoreId core, ThreadId tid)
{
    coreThread_[core] = tid;
}

void
MemorySystem::setCoreCounter(CoreId core, RecordId rid)
{
    coreCounter_[core] = rid;
}

AccessResult
MemorySystem::access(CoreId core, Addr addr, unsigned size, bool is_write,
                     const AccessTag &tag, bool capture_arcs)
{
    AccessResult result;
    Addr first_line = l1s_[core]->lineAddr(addr);
    Addr last_line = l1s_[core]->lineAddr(addr + size - 1);
    for (Addr la = first_line; la <= last_line;
         la += l1s_[core]->lineBytes()) {
        accessLine(core, la, is_write, tag, capture_arcs, result);
    }
    (is_write ? writesCtr_ : readsCtr_).inc();
    return result;
}

void
MemorySystem::addArcFrom(const BlockTag &block, CoreId producer_core,
                         const AccessTag &self, bool is_write,
                         AccessResult &result, bool capture_arcs)
{
    if (!capture_arcs || !block.valid())
        return;
    if (block.tid == self.tid)
        return; // same thread: program order already covers it

    // TSO (section 5.5): a write invalidating a block whose last access
    // was a read that retired *after* this write retired is a non-SC
    // R->W conflict. Reverse it into a W->R arc by requesting versioned
    // metadata instead of recording the (cycle-forming) arc.
    if (cfg_.memoryModel == MemoryModel::kTSO && is_write &&
        !block.wasWrite && block.retireCycle > self.retireCycle) {
        result.versionRequests.push_back(
            VersionRequest{block.tid, block.rid});
        scViolationsCtr_.inc();
        return;
    }

    RawArc arc;
    arc.tid = block.tid;
    arc.fromRead = !block.wasWrite;
    if (cfg_.depTracking == DepTracking::kPerBlock) {
        arc.rid = block.rid;
    } else {
        // Limited reduction: the producer core's current counter is
        // sent, a conservative over-approximation of the block tag.
        // The producing access retired strictly before the counter's
        // next value, so counter-1 covers it; using the raw counter
        // would demand a retirement that may never come (a thread
        // parked at a barrier), deadlocking the consumer.
        ThreadId t = coreThread_[producer_core];
        RecordId ctr = coreCounter_[producer_core];
        arc.rid = (t == block.tid && ctr > 0)
                      ? std::max(block.rid, ctr - 1)
                      : block.rid;
    }
    result.arcs.push_back(arc);
    arcsRawCtr_.inc();
}

Cycle
MemorySystem::fillFromBelow(Addr line_addr)
{
    if (l2_->lookup(line_addr))
        return l2_->hitLatency();
    // L2 miss: fetch from memory, install in L2 (inclusive).
    Cache::Victim victim;
    l2_->insert(line_addr, LineState::kExclusive, &victim);
    if (victim.valid) {
        // Back-invalidate all L1 copies of the evicted L2 line. The
        // last-writer tag is preserved: losing it would silently drop
        // dependence arcs for long-lived communication lines (the
        // happens-before validator catches exactly this).
        if (DirEntry *de = directory_.find(victim.lineAddr)) {
            for (std::uint32_t c = 0; c < numCores_; ++c) {
                if (de->sharers & (1u << c))
                    l1s_[c]->invalidate(victim.lineAddr);
            }
            de->sharers = 0;
        }
    }
    return cfg_.memLatency;
}

void
MemorySystem::accessLine(CoreId core, Addr line_addr, bool is_write,
                         const AccessTag &tag, bool capture_arcs,
                         AccessResult &result)
{
    Cache &l1 = *l1s_[core];
    DirEntry &dir = directory_[line_addr];
    CacheLine *line = l1.lookup(line_addr);
    Cycle latency = l1.hitLatency();

    if (line) {
        if (is_write && line->state == LineState::kShared) {
            // Upgrade: invalidate all other sharers, collecting arcs.
            latency += l2_->hitLatency();
            for (std::uint32_t c = 0; c < numCores_; ++c) {
                if (c == core || !(dir.sharers & (1u << c)))
                    continue;
                if (CacheLine *remote = l1s_[c]->probe(line_addr)) {
                    addArcFrom(remote->lastAccess, c, tag, is_write,
                               result, capture_arcs);
                    remote->state = LineState::kInvalid;
                }
                dir.sharers &= ~(1u << c);
            }
            line->state = LineState::kModified;
            upgradesCtr_.inc();
        } else if (is_write && line->state == LineState::kExclusive) {
            line->state = LineState::kModified;
        }
    } else {
        // L1 miss: consult the directory for remote copies.
        bool remote_modified = false;
        for (std::uint32_t c = 0; c < numCores_; ++c) {
            if (c == core || !(dir.sharers & (1u << c)))
                continue;
            CacheLine *remote = l1s_[c]->probe(line_addr);
            if (!remote) {
                dir.sharers &= ~(1u << c);
                continue;
            }
            addArcFrom(remote->lastAccess, c, tag, is_write, result,
                       capture_arcs);
            if (remote->state == LineState::kModified) {
                remote_modified = true;
                // Write-back into L2; remember the writer's tag.
                dir.lastWriter = remote->lastAccess;
                l2_->insert(line_addr, LineState::kModified, nullptr);
            }
            if (is_write) {
                remote->state = LineState::kInvalid;
                dir.sharers &= ~(1u << c);
            } else if (remote->state != LineState::kShared) {
                remote->state = LineState::kShared;
            }
        }

        if (remote_modified) {
            // Cache-to-cache transfer through the shared L2.
            latency += l2_->hitLatency();
            c2cTransfersCtr_.inc();
        } else {
            if (dir.sharers == 0 && dir.lastWriter.valid()) {
                // The last writer's copy left the L1s; order after it via
                // the tag preserved in the directory (conservative).
                addArcFrom(dir.lastWriter, core, tag, is_write, result,
                           capture_arcs);
                if (is_write)
                    dir.lastWriter = BlockTag{};
            }
            latency += fillFromBelow(line_addr);
        }

        Cache::Victim victim;
        LineState fill_state;
        if (is_write)
            fill_state = LineState::kModified;
        else if (dir.sharers == 0)
            fill_state = LineState::kExclusive;
        else
            fill_state = LineState::kShared;
        line = &l1.insert(line_addr, fill_state, &victim);
        if (victim.valid) {
            if (DirEntry *de = directory_.find(victim.lineAddr))
                de->sharers &= ~(1u << core);
        }
        dir.sharers |= (1u << core);
    }

    // Refresh the per-block dependence tag (FDR-style).
    if (tag.tid != kInvalidThread) {
        line->lastAccess.tid = tag.tid;
        line->lastAccess.rid = tag.rid;
        line->lastAccess.retireCycle = tag.retireCycle;
        // A later read does not clear "written" status for WAW purposes;
        // but the *latest* access wins for arc generation (conservative
        // either way since same-thread order subsumes it).
        line->lastAccess.wasWrite = is_write;
        if (is_write)
            dir.lastWriter = line->lastAccess;
    }

    result.latency += latency;
}

void
MemorySystem::kernelWrite(Addr addr, unsigned size, std::uint64_t value)
{
    memory_.write(addr, size, value);
    Addr first_line = l2_->lineAddr(addr);
    Addr last_line = l2_->lineAddr(addr + size - 1);
    for (Addr la = first_line; la <= last_line; la += l2_->lineBytes()) {
        if (DirEntry *de = directory_.find(la)) {
            for (std::uint32_t c = 0; c < numCores_; ++c) {
                if (de->sharers & (1u << c))
                    l1s_[c]->invalidate(la);
            }
            de->sharers = 0;
            de->lastWriter = BlockTag{}; // OS writes carry no tag
        }
        l2_->invalidate(la);
    }
    kernelWritesCtr_.inc();
}

LineState
MemorySystem::l1State(CoreId core, Addr addr) const
{
    const CacheLine *line = l1s_[core]->probe(addr);
    return line ? line->state : LineState::kInvalid;
}

} // namespace paralog
