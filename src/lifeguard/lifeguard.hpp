/**
 * @file
 * The lifeguard API: software-defined event handlers over shared global
 * metadata, with a per-thread execution context that accounts handler
 * cost (instructions + metadata cache accesses) and mediates all shadow
 * memory access.
 *
 * Porting note (the paper's stated goal): a lifeguard written against
 * this API is oblivious to parallel monitoring — ordering, accelerator
 * conflicts and metadata atomicity are handled by the platform, provided
 * the lifeguard's policy honestly declares its properties (section 5.3
 * conditions). Lifeguards that write metadata on application reads
 * (LockSet) must use the locked slow path via LgContext::atomicSlowPath.
 */

#ifndef PARALOG_LIFEGUARD_LIFEGUARD_HPP
#define PARALOG_LIFEGUARD_LIFEGUARD_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/lg_event.hpp" // LgEvent, MetaSrc
#include "accel/mtlb.hpp"
#include "lifeguard/shadow_memory.hpp"
#include "lifeguard/version_store.hpp"
#include "mem/memory_system.hpp"

namespace paralog {

/** A reported application bug / exploit. */
struct Violation
{
    enum class Kind : std::uint8_t
    {
        kTaintedJump,       ///< tainted data used as a jump target
        kTaintedOutput,     ///< tainted data written out of the process
        kUnallocatedAccess, ///< access to unallocated heap memory
        kUninitRead,        ///< read of uninitialized memory
        kDataRace,          ///< lockset violation
        kInvalidFree,       ///< free of a non-live block
    };

    Kind kind;
    ThreadId tid;
    RecordId rid;
    Addr addr;
};

/** Shared across all lifeguard threads; reports may arrive from any of
 *  them in concurrent monitoring mode, so the log carries its own lock.
 *  all() returns a reference for single-threaded readers — concurrent
 *  phases must only report/count, and inspect contents after joining. */
class ViolationLog
{
  public:
    void
    report(Violation::Kind kind, ThreadId tid, RecordId rid, Addr addr)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        violations_.push_back(Violation{kind, tid, rid, addr});
    }

    std::size_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return violations_.size();
    }
    std::size_t count(Violation::Kind kind) const;

    /**
     * Order- and duplicate-insensitive hash of the set of distinct
     * (kind, tid, addr) triples reported. Report *counts* are a
     * delivery-schedule quantity — the Idempotent Filters absorb
     * repeated checks, and how many repeats they absorb depends on
     * stall-flush timing — but a first occurrence can never be
     * absorbed, so the distinct-violation set is invariant across
     * serial and host-parallel monitoring of the same run.
     */
    std::uint64_t setFingerprint() const;

    const std::vector<Violation> &all() const { return violations_; }
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        violations_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Violation> violations_;
};

/**
 * Per-lifeguard-thread execution context: charges handler costs and
 * times metadata accesses through the lifeguard core's own cache
 * hierarchy (metadata addresses from ShadowMemory::metaAddr).
 */
class LgContext
{
  public:
    LgContext(ShadowMemory &shadow, MetadataTlb &mtlb, VersionStore &versions,
              MemorySystem *mem, CoreId core);

    /** Reset per-event accounting. */
    void beginEvent();

    std::uint64_t instrs() const { return instrs_; }
    Cycle memCycles() const { return memCycles_; }

    /** Charge @p n handler instructions. */
    void charge(std::uint32_t n) { instrs_ += n; }

    /** Metadata read/write for [app_addr, app_addr + bytes), including
     *  M-TLB address computation and metadata cache access costs. */
    std::uint64_t loadMeta(Addr app_addr, unsigned bytes);
    void storeMeta(Addr app_addr, unsigned bytes, std::uint64_t bits);

    /**
     * Read the metadata of several inherits-from ranges (IT-synthesized
     * events), returning the bitwise OR (resp. detecting all-ones via
     * allOnes) of the packed values. Sources whose metadata falls into
     * an already-touched metadata word are coalesced: the handler pays
     * one address computation and one cache access per distinct word,
     * matching how a hand-tuned handler reads neighbouring metadata.
     */
    std::uint64_t loadMetaUnion(const MetaSrc *srcs, unsigned n);

    /** True iff every byte of every source has metadata == value. */
    bool metaAllEqual(const MetaSrc *srcs, unsigned n, std::uint8_t value);

    /** Range fill / check with line-granular cost model. */
    void fillMeta(const AddrRange &range, std::uint8_t value);
    bool checkMetaAll(const AddrRange &range, std::uint8_t value);

    /**
     * Locked slow path for lifeguards violating condition 2 of section
     * 5.3 (metadata writes in read handlers): charges the cost of an
     * atomic bus-locking instruction.
     */
    void atomicSlowPath() { memCycles_ += kAtomicCost; }

    /**
     * TSO consume helper: when @p ev carries a consume-version
     * annotation whose snapshot is live, take it (charging the version
     * buffer access) and return true. The order-enforcing component
     * guarantees availability at delivery time, so a false return means
     * the event simply was not versioned.
     */
    bool consumeVersioned(const LgEvent &ev, VersionStore::Versioned &out);

    /**
     * The snapshot byte for @p addr, or the live metadata when the
     * snapshot does not cover it (version requests are cache-line
     * granular: the conflicting store may cover different bytes than
     * the reader's access).
     */
    std::uint8_t versionedByte(const VersionStore::Versioned &v, Addr addr);

    /** Packed variant of versionedByte for [addr, addr + bytes). */
    std::uint64_t versionedPacked(const VersionStore::Versioned &v,
                                  Addr addr, unsigned bytes);

    /** Standard kProduceVersion handler body: snapshot the event's
     *  byte range and publish it under its tag, charging the metadata
     *  read plus the version-buffer write. Lifeguards whose metadata
     *  geometry differs from the store's byte range (LockSet's granule
     *  states) implement their own snapshot instead. */
    void produceSnapshot(const LgEvent &ev);

    static constexpr Cycle kAtomicCost = 130;

    ShadowMemory &shadow() { return shadow_; }
    VersionStore &versions() { return versions_; }

    /**
     * Record/replay seam for metadata cache timing. Metadata accesses
     * share the L2 with the application cores, so their latencies
     * depend on application cache interference — the one consumer-side
     * quantity replay cannot regenerate without the application. The
     * tee observes every access latency while recording; the oracle
     * *supplies* them during replay (the memory system, if any, is
     * bypassed).
     */
    void setMetaLatencyTee(std::function<void(Cycle)> tee)
    {
        metaTee_ = std::move(tee);
    }
    void setMetaLatencyOracle(std::function<Cycle()> oracle)
    {
        metaOracle_ = std::move(oracle);
    }

  private:
    void touchMeta(Addr app_addr, unsigned app_bytes, bool is_write);

    /** The single funnel for metadata cache accesses: real memory
     *  system, replay oracle, or free (untimed unit tests). */
    Cycle metaCacheAccess(Addr meta_addr, unsigned bytes, bool is_write);

    ShadowMemory &shadow_;
    MetadataTlb &mtlb_;
    VersionStore &versions_;
    MemorySystem *mem_; ///< may be null (untimed unit tests, replay)
    CoreId core_;
    std::function<void(Cycle)> metaTee_;
    std::function<Cycle()> metaOracle_;
    std::uint64_t instrs_ = 0;
    Cycle memCycles_ = 0;
};

/**
 * Base class of all lifeguards. One instance is shared by all lifeguard
 * threads (the global metadata of Figure 2); per-application-thread
 * register metadata is indexed by the event's thread id.
 */
class Lifeguard
{
  public:
    virtual ~Lifeguard() = default;

    virtual const char *name() const = 0;

    /** Accelerator/capture/CA policy (fixed at initialization time). */
    virtual LifeguardPolicy policy() const = 0;

    /** Process one delivered event, charging costs through @p ctx. */
    virtual void handle(const LgEvent &ev, LgContext &ctx) = 0;

    ShadowMemory &shadow() { return shadow_; }
    const ShadowMemory &shadow() const { return shadow_; }
    ViolationLog violations;

  protected:
    Lifeguard(std::uint32_t num_threads, std::uint32_t bits_per_byte);

    /** Per-thread, per-register metadata (one byte per register). */
    std::uint8_t &regMeta(ThreadId tid, RegId reg);

    ShadowMemory shadow_;
    std::vector<std::array<std::uint8_t, kNumRegs>> regMeta_;
};

using LifeguardPtr = std::unique_ptr<Lifeguard>;

/** Factory used by the platform and benches. */
enum class LifeguardKind
{
    kTaintCheck,
    kAddrCheck,
    kMemCheck,
    kLockSet,
};

LifeguardPtr makeLifeguard(LifeguardKind kind, std::uint32_t num_threads);
const char *toString(LifeguardKind kind);

} // namespace paralog

#endif // PARALOG_LIFEGUARD_LIFEGUARD_HPP
