/**
 * @file
 * Two-level shadow (metadata) memory, as described in section 6: a
 * first-level chunk table indexed by the high application address bits,
 * with metadata chunks allocated lazily when the corresponding virtual
 * space is first used.
 *
 * The metadata-to-data ratio is configurable (1, 2, 4 or 8 bits per
 * application byte: AddrCheck uses 1, TaintCheck uses 2). Metadata bytes
 * live at a modelled virtual address (metaAddr) so lifeguard cache
 * behaviour can be simulated.
 *
 * The layout satisfies condition 3 of section 5.3 (no bit-manipulation
 * races): metadata bytes covering different 64-byte application lines
 * never share a byte, because 64 app bytes map to >= 8 metadata bytes.
 *
 * Hot-path design (this is the most-executed data structure in the
 * simulator):
 *  - the chunk table is consulted once per access/range, not once per
 *    byte, and the most recent chunk is cached so sequential access
 *    streams skip the hash lookup entirely;
 *  - packed accesses load/store one 64-bit word of metadata directly;
 *  - fill() writes whole bytes via std::memset (with masked edge bytes
 *    for sub-byte ratios) instead of per-byte read-modify-write;
 *  - rangeFindNot()/rangeAll() scan 64-bit words;
 *  - writes of metadata value 0 to an unmapped chunk are elided: chunks
 *    are zero-initialized, so fill(range, 0) over untouched address
 *    space allocates nothing.
 *
 * Concurrent mode (setConcurrent): when lifeguard cores run on separate
 * host threads, chunk-map lookups/inserts take the map mutex, the
 * shared last-chunk cache is bypassed, and the packed fast paths drop
 * from word-granular to backing-byte-granular memory operations. The
 * byte granularity is what makes unlocked metadata access sound: one
 * backing byte covers 8/bitsPerByte consecutive aligned application
 * bytes, which always lie inside a single 64-byte application line
 * (condition 3 of section 5.3) — so two threads touch the same backing
 * byte only when they access the same line, and same-line accesses are
 * ordered by the delivery protocol (dependence arcs / versioning),
 * with the progress table providing the release/acquire edge. The
 * 64-bit word paths would break exactly that: an unaligned word RMW
 * spans up to 64 application bytes of metadata, clobbering neighbour
 * lines owned by other threads.
 */

#ifndef PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP
#define PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace paralog {

class ShadowMemory;

/**
 * FNV-1a-style hash of the shadow metadata over [base, base + bytes),
 * one metadata value per application byte, started from the project's
 * basis (kFnvBasis in common/fnv.hpp, not the textbook offset basis):
 * the canonical "did two runs reach the same analysis conclusions?"
 * fingerprint, shared by the equivalence test suites and the trace
 * record/replay self-check.
 * Same as ShadowMemory::fingerprint (see there for the cost model).
 */
std::uint64_t shadowFingerprint(const ShadowMemory &shadow, Addr base,
                                std::uint64_t bytes);

class ShadowMemory
{
  public:
    /// Application bytes covered by one metadata chunk.
    static constexpr std::uint64_t kChunkAppBytes = 1ULL << 20;

    /// Base of the modelled metadata virtual address region.
    static constexpr Addr kMetaBase = 1ULL << 40;

    explicit ShadowMemory(std::uint32_t bits_per_byte);

    std::uint32_t bitsPerByte() const { return bitsPerByte_; }

    /**
     * Switch between the single-threaded fast paths (default) and the
     * concurrent-safe paths (see the file comment). Results are
     * bit-identical either way; only the host-level memory operations
     * differ. Must be called while no other thread is accessing the
     * shadow.
     */
    void setConcurrent(bool on) { concurrent_ = on; }
    bool concurrent() const { return concurrent_; }

    /** Metadata value (bitsPerByte wide) for one application byte. */
    std::uint8_t read(Addr app_addr) const;
    void write(Addr app_addr, std::uint8_t value);

    /** Pack the metadata of @p bytes consecutive app bytes (<= 8). */
    std::uint64_t readPacked(Addr app_addr, unsigned bytes) const;
    void writePacked(Addr app_addr, unsigned bytes, std::uint64_t bits);

    /** True iff every byte in [range) has metadata == value. */
    bool rangeAll(const AddrRange &range, std::uint8_t value) const;

    /** First app byte in [range) with metadata != value, else
     *  kInvalidAddr. */
    Addr rangeFindNot(const AddrRange &range, std::uint8_t value) const;

    void fill(const AddrRange &range, std::uint8_t value);

    /**
     * FNV-1a-style hash of the metadata over [base, base + bytes) from
     * kFnvBasis, folding one metadata value per application byte in
     * address order. The
     * cost follows the mapped metadata, not the address range. A zero
     * value folds as a multiply by the FNV prime, so a run of n zeros
     * is one multiply by its n-th power: an unmapped chunk segment
     * costs O(1), a mapped chunk is scanned by 64-bit backing word
     * (a zero word or zero backing byte only lengthens the zero run),
     * and only non-zero backing bytes and the unaligned head and tail
     * of the range are unpacked per value. Reads whole backing words,
     * so it must run while no thread writes the shadow (after every
     * lifeguard thread has joined).
     */
    std::uint64_t fingerprint(Addr base, std::uint64_t bytes) const;

    /** Modelled virtual address of the metadata for @p app_addr. */
    Addr
    metaAddr(Addr app_addr) const
    {
        return kMetaBase + (app_addr * bitsPerByte_) / 8;
    }

    std::size_t chunkCount() const { return chunks_.size(); }

    /** Backing-store bytes actually allocated for metadata chunks
     *  (observes the zero-write elision: filling untouched space with
     *  value 0 allocates nothing). */
    std::uint64_t bytesAllocated() const
    {
        return chunkCount() * chunkMetaBytes_;
    }

  private:
    using Chunk = std::vector<std::uint8_t>;

    /** The mapped chunk covering @p app_addr, or nullptr. Refreshes the
     *  last-chunk cache on a hash-table hit. */
    Chunk *lookupChunk(Addr app_addr) const;

    /** The chunk covering @p app_addr, allocating (and caching) it. */
    Chunk &ensureChunk(Addr app_addr);

    /** Replicate a metadata value across one backing byte. */
    std::uint8_t patternByte(std::uint8_t value) const;

    std::uint64_t readPackedSlow(Addr app_addr, unsigned bytes) const;
    void writePackedSlow(Addr app_addr, unsigned bytes, std::uint64_t bits);

    std::uint32_t bitsPerByte_;
    std::uint8_t valueMask_;
    std::uint64_t chunkMetaBytes_;
    bool concurrent_ = false;

    FlatAddrMap<std::unique_ptr<Chunk>> chunks_;
    /// Last-chunk cache (serial mode only). Chunk storage is stable
    /// (vectors never resize, unique_ptr targets never move), so a
    /// cached pointer stays valid for the lifetime of the ShadowMemory.
    /// Mutable so const readers benefit from sequential access too.
    mutable std::uint64_t cachedIdx_ = ~0ULL;
    mutable Chunk *cachedChunk_ = nullptr;
    /// Concurrent mode only: guards the chunk map (find/insert). Chunk
    /// *contents* are unlocked: backing-byte granularity plus protocol
    /// ordering make that race-free.
    mutable std::mutex mapMutex_;
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP
