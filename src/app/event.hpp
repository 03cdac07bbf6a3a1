/**
 * @file
 * Event record types: the unit of communication between the monitored
 * application (event capture) and the lifeguard (event delivery). This is
 * the paper's per-thread "event stream" (Figures 1, 2 and 4).
 */

#ifndef PARALOG_APP_EVENT_HPP
#define PARALOG_APP_EVENT_HPP

#include <cstdint>
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
 */
struct EventRecord
{
    EventType type = EventType::kNone;
    ThreadId tid = kInvalidThread;
    RecordId rid = kInvalidRecord;
    RegId dst = 0;
    RegId src = 0;
    std::uint8_t size = 0;
    Addr addr = 0;
    std::uint64_t value = 0; ///< imm / CA seq / switch target
    AddrRange range{};
    SyscallKind syscall = SyscallKind::kNone;
    HighLevelKind caKind = HighLevelKind::kMallocEnd; ///< for CA records
    /// ConflictAlert sequence this high-level event broadcast (issuer
    /// side); kNoCaSeq if none.
    std::uint64_t caSeq = kNoCaSeq;
    std::vector<DepArc> arcs; ///< inter-thread dependences (post-reduction)
    VersionTag version{};///< produce/consume version (invalid if none)
    bool consumesVersion = false; ///< read annotated with a version
    /// Access performed by the trusted wrapper library (allocator
    /// headers): captured for ordering but not checked by lifeguards.
    bool wrapper = false;
    /// Bytes charged against the log buffer at append time (annotations
    /// added later — TSO arcs, versions — must not skew accounting).
    std::uint32_t chargedBytes = 0;
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

    bool isMemAccess() const
    {
        return type == EventType::kLoad || type == EventType::kStore;
    }

    /** Modelled compressed size in the log buffer (~1 B per record). */
    std::uint32_t compressedBytes() const;

    /** Back to the default-constructed state, but keeping `arcs`'
     *  capacity: decode hot paths reuse one record across millions of
     *  calls, and `*this = EventRecord{}` would free the vector's
     *  buffer every time. */
    void
    reset()
    {
        type = EventType::kNone;
        tid = kInvalidThread;
        rid = kInvalidRecord;
        dst = 0;
        src = 0;
        size = 0;
        addr = 0;
        value = 0;
        range = AddrRange{};
        syscall = SyscallKind::kNone;
        caKind = HighLevelKind::kMallocEnd;
        caSeq = kNoCaSeq;
        arcs.clear();
        version = VersionTag{};
        consumesVersion = false;
        wrapper = false;
        chargedBytes = 0;
        appendCycle = 0;
    }
};

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
