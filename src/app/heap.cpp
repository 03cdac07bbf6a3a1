#include "app/heap.hpp"

#include "common/bitops.hpp"
#include "common/logging.hpp"

namespace paralog {

Heap::Heap(Addr base, std::uint64_t bytes, std::uint32_t arenas)
    : base_(base), bytes_(bytes)
{
    PARALOG_ASSERT(arenas >= 1, "need at least one arena");
    PARALOG_ASSERT(bytes / arenas >= kMinBlockBytes, "heap too small");
    std::uint64_t per = alignDown(bytes / arenas, 64);
    for (std::uint32_t a = 0; a < arenas; ++a) {
        Arena ar;
        ar.begin = base + a * per;
        ar.end = (a + 1 == arenas) ? base + bytes : ar.begin + per;
        ar.freeBlocks.emplace(ar.begin, ar.end - ar.begin);
        arenas_.push_back(std::move(ar));
    }
}

std::uint32_t
Heap::arenaOf(Addr addr) const
{
    for (std::uint32_t a = 0; a < arenas_.size(); ++a) {
        if (addr >= arenas_[a].begin && addr < arenas_[a].end)
            return a;
    }
    return 0;
}

Addr
Heap::allocateFrom(Arena &arena, std::uint64_t bytes)
{
    std::uint64_t payload = alignUp(std::max<std::uint64_t>(bytes, 8), 8);
    std::uint64_t total = std::max(payload + kHeaderBytes, kMinBlockBytes);

    for (auto it = arena.freeBlocks.begin(); it != arena.freeBlocks.end();
         ++it) {
        if (it->second < total)
            continue;
        Addr header = it->first;
        std::uint64_t block_size = it->second;
        arena.freeBlocks.erase(it);
        std::uint64_t rest = block_size - total;
        if (rest >= kMinBlockBytes)
            arena.freeBlocks.emplace(header + total, rest);
        else
            total = block_size; // absorb the sliver
        Addr pay = header + kHeaderBytes;
        allocated_.emplace(pay, total - kHeaderBytes);
        return pay;
    }
    return 0;
}

Addr
Heap::allocate(std::uint64_t bytes, ThreadId tid)
{
    std::uint32_t home = tid % arenas_.size();
    for (std::uint32_t i = 0; i < arenas_.size(); ++i) {
        std::uint32_t a = (home + i) % arenas_.size();
        Addr pay = allocateFrom(arenas_[a], bytes);
        if (pay != 0) {
            allocsCtr_.inc();
            allocBytesHist_.sample(bytes);
            if (i != 0)
                arenaFallbacksCtr_.inc();
            return pay;
        }
    }
    allocFailuresCtr_.inc();
    return 0;
}

void
Heap::release(Addr payload)
{
    auto it = allocated_.find(payload);
    PARALOG_ASSERT(it != allocated_.end(),
                   "free of non-live block %#llx",
                   static_cast<unsigned long long>(payload));
    std::uint64_t total = it->second + kHeaderBytes;
    allocated_.erase(it);
    freesCtr_.inc();
    Arena &arena = arenas_[arenaOf(payload)];
    coalesce(arena, headerAddr(payload), total);
}

void
Heap::coalesce(Arena &arena, Addr header, std::uint64_t total)
{
    auto next = arena.freeBlocks.lower_bound(header);
    if (next != arena.freeBlocks.end() && header + total == next->first) {
        total += next->second;
        next = arena.freeBlocks.erase(next);
    }
    if (next != arena.freeBlocks.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == header) {
            prev->second += total;
            return;
        }
    }
    arena.freeBlocks.emplace(header, total);
}

std::uint64_t
Heap::blockSize(Addr payload) const
{
    auto it = allocated_.find(payload);
    return it == allocated_.end() ? 0 : it->second;
}

} // namespace paralog
