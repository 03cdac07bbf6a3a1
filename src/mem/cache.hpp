/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Each L1 line additionally carries the (thread id, record id, was-write,
 * retire-cycle) tag of its last access — the paper's FDR-style per-block
 * timestamp that is piggy-backed on coherence messages to produce
 * dependence arcs (section 5.1).
 */

#ifndef PARALOG_MEM_CACHE_HPP
#define PARALOG_MEM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace paralog {

/** MESI-style line state (we never need to distinguish E from S for
 *  dependence purposes, but keep both for fidelity). */
enum class LineState : std::uint8_t
{
    kInvalid,
    kShared,
    kExclusive,
    kModified,
};

/** Last-access tag recorded per L1 block (FDR-style). */
struct BlockTag
{
    ThreadId tid = kInvalidThread;
    RecordId rid = kInvalidRecord;
    Cycle retireCycle = 0;
    bool wasWrite = false;

    bool valid() const { return tid != kInvalidThread; }
};

struct CacheLine
{
    Addr tag = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lruStamp = 0;
    BlockTag lastAccess; ///< per-block dependence timestamp

    bool valid() const { return state != LineState::kInvalid; }
};

/**
 * Tag-only cache model. Data lives in MainMemory; this class tracks
 * presence, coherence state and LRU victims.
 */
class Cache
{
  public:
    Cache(const CacheParams &params, std::string name);

    /** Result of a lookup/fill operation. */
    struct Victim
    {
        bool valid = false;        ///< a line was evicted
        Addr lineAddr = 0;         ///< base address of the evicted line
        LineState state = LineState::kInvalid;
    };

    /** Find the line containing @p addr, or nullptr. Updates LRU. */
    CacheLine *lookup(Addr addr);

    /** Find without touching LRU (for coherence probes). */
    CacheLine *probe(Addr addr);
    const CacheLine *probe(Addr addr) const;

    /**
     * Insert the line containing @p addr with @p state, evicting the LRU
     * way if needed. Returns the victim (if any) so the caller can
     * maintain inclusion/dirty write-back.
     */
    CacheLine &insert(Addr addr, LineState state, Victim *victim);

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }
    std::uint32_t lineBytes() const { return params_.lineBytes; }
    Cycle hitLatency() const { return params_.hitLatency; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    std::uint32_t setIndex(Addr addr) const;

    CacheParams params_;
    std::string name_;
    std::uint32_t numSets_;
    unsigned lineShift_; ///< log2(lineBytes): setIndex must not divide
    Addr lineMask_;
    std::uint64_t lruClock_ = 0;
    std::vector<CacheLine> lines_; // numSets_ * assoc, set-major
};

} // namespace paralog

#endif // PARALOG_MEM_CACHE_HPP
