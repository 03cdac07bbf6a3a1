/**
 * @file
 * Shared heap allocator for the simulated application, with per-thread
 * arenas like a modern malloc: each thread allocates from its own arena
 * under that arena's lock, so unrelated allocations do not serialize.
 *
 * The allocator is deliberately realistic about *where it writes*: it
 * only touches 16-byte block headers adjacent to each payload. A free()
 * racing a load of the payload interior therefore produces no coherence
 * traffic linking the two — the paper's "logical race" (section 4.3) —
 * making the ConflictAlert mechanism load-bearing in this reproduction.
 */

#ifndef PARALOG_APP_HEAP_HPP
#define PARALOG_APP_HEAP_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {

class Heap
{
  public:
    static constexpr std::uint64_t kHeaderBytes = 16;
    static constexpr std::uint64_t kMinBlockBytes = 32;

    Heap(Addr base, std::uint64_t bytes, std::uint32_t arenas = 1);

    /**
     * Allocate @p bytes from @p tid's arena (falling back to other
     * arenas on exhaustion); returns the payload address or 0.
     */
    Addr allocate(std::uint64_t bytes, ThreadId tid = 0);

    /** Release a payload address returned by allocate(). */
    void release(Addr payload);

    /** Payload size of a live block (0 if not a live block). */
    std::uint64_t blockSize(Addr payload) const;

    bool isLive(Addr payload) const { return blockSize(payload) != 0; }

    /** Header address for a payload (what the wrapper library touches). */
    static Addr headerAddr(Addr payload) { return payload - kHeaderBytes; }

    Addr base() const { return base_; }
    Addr end() const { return base_ + bytes_; }
    AddrRange arena() const { return AddrRange{base_, base_ + bytes_}; }

    std::uint64_t liveBlocks() const { return allocated_.size(); }

    std::uint32_t arenaCount() const
    {
        return static_cast<std::uint32_t>(arenas_.size());
    }

    /** Arena that owns @p addr. */
    std::uint32_t arenaOf(Addr addr) const;

    /** Address of an arena's allocator lock word. */
    Addr lockAddr(std::uint32_t arena_idx = 0) const
    {
        return base_ - 64 * (1 + arena_idx);
    }

    StatSet stats{"heap"};

  private:
    struct Arena
    {
        Addr begin = 0;
        Addr end = 0;
        std::map<Addr, std::uint64_t> freeBlocks; ///< header -> total size
    };

    Addr allocateFrom(Arena &arena, std::uint64_t bytes);
    void coalesce(Arena &arena, Addr header, std::uint64_t total);

    Addr base_;
    std::uint64_t bytes_;
    std::vector<Arena> arenas_;
    std::map<Addr, std::uint64_t> allocated_; ///< payload -> payload size
    Counter &allocsCtr_{stats.counter("allocs")};
    Counter &freesCtr_{stats.counter("frees")};
    Counter &allocFailuresCtr_{stats.counter("alloc_failures")};
    Counter &arenaFallbacksCtr_{stats.counter("arena_fallbacks")};
    Histogram &allocBytesHist_{stats.histogram("alloc_bytes")};
};

} // namespace paralog

#endif // PARALOG_APP_HEAP_HPP
