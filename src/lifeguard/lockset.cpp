#include "lifeguard/lockset.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace paralog {

LockSet::LockSet(std::uint32_t num_threads)
    : Lifeguard(num_threads, 2), heldLocks_(num_threads)
{
    // Lockset id 0 is the empty set.
    locksets_.push_back(LockVec{});
    internMap_.emplace(LockVec{}, 0);
}

std::uint32_t
LockSet::internLockset(const LockVec &locks)
{
    auto it = internMap_.find(locks);
    if (it != internMap_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(locksets_.size());
    locksets_.push_back(locks);
    internMap_.emplace(locks, id);
    return id;
}

const LockSet::LockVec &
LockSet::locksetById(std::uint32_t id) const
{
    PARALOG_ASSERT(id < locksets_.size(), "bad lockset id %u", id);
    return locksets_[id];
}

std::uint32_t
LockSet::intersect(std::uint32_t id, const LockVec &held)
{
    const LockVec &cur = locksetById(id);
    LockVec result;
    std::set_intersection(cur.begin(), cur.end(), held.begin(), held.end(),
                          std::back_inserter(result));
    if (result == cur)
        return id;
    return internLockset(result);
}

void
LockSet::access(const LgEvent &ev, LgContext &ctx, bool is_write)
{
    Addr g = granuleOf(ev.addr);

    // TSO: a versioned access decides on the snapshot state (what the
    // application actually observed, pre-overwrite). Read-side-writer
    // rule: if the conflicting store's handler has already applied its
    // newer metadata ('writerDone'), this late consumer must keep its
    // snapshot-based *decision* but suppress its metadata *write* —
    // escalating live state from a stale snapshot would clobber the
    // store handler's result. The pair is racy either way, and the
    // snapshot-based check reports it.
    VersionStore::Versioned ver;
    bool versioned = ctx.consumeVersioned(ev, ver);
    bool write_back = !(versioned && ver.writerDone);
    std::uint8_t st = versioned
                          ? static_cast<std::uint8_t>(
                                ctx.versionedByte(ver, g) & 0x3)
                          : static_cast<std::uint8_t>(
                                ctx.loadMeta(g, 1) & 0x3);
    const LockVec &held = heldLocks_[ev.tid];
    ctx.charge(3);

    // Fast path: shared state with a lockset that already contains only
    // locks we hold requires no metadata write.
    if (st == kShared || st == kSharedModified) {
        auto it = granules_.find(g);
        std::uint32_t ls = (it != granules_.end()) ? it->second.locksetId
                                                   : 0;
        std::uint32_t refined = intersect(ls, held);
        if (refined == ls && !(st == kShared && is_write)) {
            ++fastPathHits;
            if (locksetById(ls).empty() &&
                (st == kSharedModified || is_write)) {
                violations.report(Violation::Kind::kDataRace, ev.tid,
                                  ev.rid, ev.addr);
            }
            return;
        }
        // Slow path: refine the lockset / escalate the state under the
        // metadata lock (condition-2 violation handled with software
        // synchronization, section 5.3).
        ctx.atomicSlowPath();
        ++slowPathEntries;
        std::uint8_t new_state =
            (st == kSharedModified || is_write) ? kSharedModified : kShared;
        if (write_back) {
            granules_[g].locksetId = refined;
            ctx.storeMeta(g, 1, new_state);
        }
        if (locksetById(refined).empty() && new_state == kSharedModified) {
            violations.report(Violation::Kind::kDataRace, ev.tid, ev.rid,
                              ev.addr);
        }
        return;
    }

    // Virgin / exclusive transitions always take the slow path. The
    // race *decision* runs regardless of write_back — only the
    // metadata/side-table updates are suppressed for late consumers.
    ctx.atomicSlowPath();
    ++slowPathEntries;
    if (st == kVirgin) {
        if (write_back) {
            Granule &gr = granules_[g];
            gr.firstOwner = ev.tid;
            gr.locksetId = internLockset(held);
            ctx.storeMeta(g, 1, kExclusive);
        }
        return;
    }
    // kExclusive
    auto it = granules_.find(g);
    ThreadId first_owner =
        (it != granules_.end()) ? it->second.firstOwner : kInvalidThread;
    if (first_owner == ev.tid) {
        // Still the owning thread: refresh the candidate set.
        if (write_back && it != granules_.end())
            it->second.locksetId = internLockset(held);
        return;
    }
    std::uint32_t ls = (it != granules_.end()) ? it->second.locksetId : 0;
    std::uint32_t refined = intersect(ls, held);
    std::uint8_t new_state = is_write ? kSharedModified : kShared;
    if (write_back) {
        granules_[g].locksetId = refined;
        ctx.storeMeta(g, 1, new_state);
    }
    if (locksetById(refined).empty() && new_state == kSharedModified) {
        violations.report(Violation::Kind::kDataRace, ev.tid, ev.rid,
                          ev.addr);
    }
}

void
LockSet::handle(const LgEvent &ev, LgContext &ctx)
{
    switch (ev.type) {
      case LgEventType::kLoad:
        access(ev, ctx, false);
        break;

      case LgEventType::kStore:
        access(ev, ctx, true);
        break;

      case LgEventType::kLockAcquire: {
        LockVec &held = heldLocks_[ev.tid];
        held.insert(std::lower_bound(held.begin(), held.end(), ev.addr),
                    ev.addr);
        ctx.charge(4);
        break;
      }

      case LgEventType::kLockRelease: {
        LockVec &held = heldLocks_[ev.tid];
        auto it = std::lower_bound(held.begin(), held.end(), ev.addr);
        if (it != held.end() && *it == ev.addr)
            held.erase(it);
        ctx.charge(4);
        break;
      }

      case LgEventType::kMalloc:
      case LgEventType::kFree:
        // Recycled memory returns to virgin state.
        ctx.fillMeta(ev.range, kVirgin);
        for (Addr g = granuleOf(ev.range.begin);
             g < ev.range.end; g += kGranuleBytes) {
            granules_.erase(g);
        }
        break;

      case LgEventType::kProduceVersion: {
        // TSO: snapshot the pre-overwrite Eraser states for the
        // conflicting reader (section 5.5). LockSet keeps each
        // granule's state in the byte at granuleOf(addr), so the
        // snapshot must cover every granule base the store touches —
        // the store's own byte range misses the state byte for
        // interior stores, and the consumer would silently fall back
        // to post-overwrite live metadata. A granule-crossing store
        // (at most two granules for size <= 8) snapshots 16 bytes in
        // two packed reads; at 2 bits/byte that is 32 bits.
        // (The interned lockset side table is not versioned: it is
        // guarded by the atomic slow path, and the state byte alone
        // drives the transition taken.)
        Addr base = granuleOf(ev.addr);
        Addr last = granuleOf(ev.addr + (ev.size ? ev.size - 1u : 0u));
        std::uint64_t bits = ctx.loadMeta(base, kGranuleBytes);
        std::uint8_t span = kGranuleBytes;
        if (last != base) {
            bits |= ctx.loadMeta(base + kGranuleBytes, kGranuleBytes)
                    << (kGranuleBytes * shadow_.bitsPerByte());
            span = 2 * kGranuleBytes;
        }
        ctx.versions().produce(
            ev.version, VersionStore::Versioned{bits, base, span});
        ctx.charge(4);
        break;
      }

      default:
        ctx.charge(1);
        break;
    }
}

} // namespace paralog
