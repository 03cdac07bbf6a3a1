/**
 * @file
 * Event record types: the unit of communication between the monitored
 * application (event capture) and the lifeguard (event delivery). This is
 * the paper's per-thread "event stream" (Figures 1, 2 and 4).
 */

#ifndef PARALOG_APP_EVENT_HPP
#define PARALOG_APP_EVENT_HPP

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mem/memory_system.hpp"

namespace paralog {

enum class HighLevelKind : std::uint8_t
{
    kMallocEnd,
    kFreeBegin,
    kSyscallBegin,
    kSyscallEnd,
};

enum class EventType : std::uint8_t
{
    kNone,
    // Instruction-level events.
    kLoad,   ///< dst <- mem[addr]
    kStore,  ///< mem[addr] <- src
    kMovRR,  ///< dst <- src
    kMovImm, ///< dst <- constant (clears metadata)
    kAlu,    ///< dst <- dst op src (metadata union)
    kJump,   ///< indirect jump through src (critical use)
    // High-level (wrapper library / OS) events.
    kMallocEnd,    ///< allocation completed, range = [begin, end)
    kFreeBegin,    ///< deallocation starting, range = [begin, end)
    kSyscallBegin, ///< entering a system call touching range
    kSyscallEnd,   ///< returned from a system call touching range
    kLockAcquire,  ///< lock word at addr acquired
    kLockRelease,  ///< lock word at addr released
    kBarrierPass,  ///< passed a phase barrier at addr
    kThreadDone,   ///< thread exited; progress becomes infinite
    kThreadSwitch, ///< timesliced mode: subsequent records belong to tid
                   ///< given in 'value'
    // Order-capture bookkeeping records.
    kCaBegin, ///< ConflictAlert begin (value = CA sequence number)
    kCaEnd,   ///< ConflictAlert end   (value = CA sequence number)
    kProduceVersion, ///< TSO: snapshot metadata(addr) under 'version'
};

/** Sentinel: record did not broadcast a ConflictAlert. */
inline constexpr std::uint64_t kNoCaSeq = ~0ULL;

/** Which syscall a kSyscall{Begin,End} record refers to. */
enum class SyscallKind : std::uint8_t
{
    kNone,
    kRead,  ///< fills [range): untrusted data (TaintCheck taints it)
    kWrite, ///< reads [range): output (TaintCheck checks for leaks)
};

/**
 * One record in a thread's event stream.
 *
 * The dependence arc (if any) is stored at the receiving end per the
 * paper's order-capturing design; 'version' implements the TSO
 * produce/consume annotations of section 5.5.
 *
 * Layout: the log buffer holds thousands of these per stream, so a
 * record is exactly 64 bytes, one cache line of buffer footprint (a
 * deque node holds 8). The hot part (the fields every record uses,
 * plus one owning pointer) is inline; range, version and arcs live in
 * a cold block allocated only by the few records that carry one of
 * them (high-level, CA, TSO-annotated and arc-carrying records, about
 * 3% of a stream). A record without cold data owns no block: copying,
 * moving and reset() never allocate for it. Copying a record
 * deep-copies its cold block.
 *
 * The type is deliberately not alignas(64): an over-aligned element
 * makes every deque node an aligned operator new, which glibc serves
 * outside its per-thread cache, and that cost more than the line
 * alignment saved (see ROADMAP item 5(d)).
 */
struct EventRecord
{
    RecordId rid = kInvalidRecord;
    Addr addr = 0;
    std::uint64_t value = 0; ///< imm / CA seq / switch target
    /// ConflictAlert sequence this high-level event broadcast (issuer
    /// side); kNoCaSeq if none.
    std::uint64_t caSeq = kNoCaSeq;
    /// Simulated cycle at which the application core appended this
    /// record (equal to the retiring access's AccessTag::retireCycle).
    /// Transient capture-side state for the live-parallel publication
    /// seal (CaptureUnit::publishSealed): a record may leave the
    /// producer's log buffer only once no buffered TSO store can still
    /// target it with a consume-version annotation. Never serialized;
    /// CA-arrival and produce-version insertions keep 0 (they are never
    /// the target of a version request — those name a memory access's
    /// AccessTag rid, whose own record carries the real append cycle).
    Cycle appendCycle = 0;
    ThreadId tid = kInvalidThread;
    /// Bytes charged against the log buffer at append time (annotations
    /// added later — TSO arcs, versions — must not skew accounting).
    std::uint32_t chargedBytes = 0;
    EventType type = EventType::kNone;
    RegId dst = 0;
    RegId src = 0;
    std::uint8_t size = 0;
    SyscallKind syscall = SyscallKind::kNone;
    HighLevelKind caKind = HighLevelKind::kMallocEnd; ///< for CA records
    bool consumesVersion = false; ///< read annotated with a version
    /// Access performed by the trusted wrapper library (allocator
    /// headers): captured for ordering but not checked by lifeguards.
    bool wrapper = false;

    bool isMemAccess() const
    {
        return type == EventType::kLoad || type == EventType::kStore;
    }

    /** Modelled compressed size in the log buffer (~1 B per record). */
    std::uint32_t compressedBytes() const;

    /** Back to the default-constructed state; frees the cold block. */
    void reset() { *this = EventRecord{}; }

    /** High-level / CA records: the address range the event covers. */
    AddrRange
    range() const
    {
        return cold_.p ? cold_.p->range : AddrRange{};
    }
    void
    setRange(const AddrRange &r)
    {
        if (cold_.p || r != AddrRange{})
            cold().range = r;
    }

    /** Produce/consume version (invalid if none). */
    VersionTag
    version() const
    {
        return cold_.p ? cold_.p->version : VersionTag{};
    }
    void
    setVersion(const VersionTag &v)
    {
        if (cold_.p || v != VersionTag{})
            cold().version = v;
    }

    /** Inter-thread dependences (post-reduction). */
    const std::vector<DepArc> &
    arcs() const
    {
        return cold_.p ? cold_.p->arcs : kNoArcs;
    }
    /** The arc list, for appending to; allocates the cold block. */
    std::vector<DepArc> &mutableArcs() { return cold().arcs; }
    void
    setArcs(std::vector<DepArc> &&arcs)
    {
        if (cold_.p || !arcs.empty())
            cold().arcs = std::move(arcs);
    }
    /** Move the arcs out, leaving this record with none. */
    std::vector<DepArc>
    takeArcs()
    {
        return cold_.p ? std::exchange(cold_.p->arcs, {})
                       : std::vector<DepArc>{};
    }

    /** True if this record owns a cold block. Readers never need it:
     *  range, version and arcs read as empty when the block is absent. */
    bool hasColdBlock() const { return cold_.p != nullptr; }

  private:
    struct Cold
    {
        AddrRange range{};
        VersionTag version{};
        std::vector<DepArc> arcs;
    };

    /** Owning pointer to the cold block; copying deep-copies it. */
    struct ColdPtr
    {
        std::unique_ptr<Cold> p;

        ColdPtr() = default;
        ColdPtr(ColdPtr &&) noexcept = default;
        ColdPtr &operator=(ColdPtr &&) noexcept = default;
        ColdPtr(const ColdPtr &o)
            : p(o.p ? std::make_unique<Cold>(*o.p) : nullptr)
        {
        }
        ColdPtr &
        operator=(const ColdPtr &o)
        {
            if (!o.p)
                p.reset();
            else if (p)
                *p = *o.p;
            else
                p = std::make_unique<Cold>(*o.p);
            return *this;
        }
    };

    Cold &
    cold()
    {
        if (!cold_.p)
            cold_.p = std::make_unique<Cold>();
        return *cold_.p;
    }

    static inline const std::vector<DepArc> kNoArcs{};

    ColdPtr cold_;
};

static_assert(sizeof(EventRecord) == 64,
              "EventRecord must stay one cache line long");

/**
 * What the interpreter hands the capture unit after retiring one
 * micro-op: the record to append plus raw dependence information from
 * the coherence fabric.
 */
struct AppEvent
{
    EventRecord record;
    std::vector<RawArc> arcs;
    std::vector<VersionRequest> versionRequests;
    bool caBroadcast = false; ///< platform must broadcast a ConflictAlert
    HighLevelKind caKind = HighLevelKind::kMallocEnd;
};

const char *toString(EventType t);

} // namespace paralog

#endif // PARALOG_APP_EVENT_HPP
