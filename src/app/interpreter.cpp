#include "app/interpreter.hpp"

#include "common/logging.hpp"

namespace paralog {

namespace {

/** Internal micro-op builders for wrapper-library expansions. */
Inst
microHighLevel(HighLevelKind kind, const AddrRange &range, bool ca)
{
    Inst i;
    i.op = Op::kHighLevel;
    i.hlKind = static_cast<std::uint8_t>(kind);
    i.range = range;
    i.ca = ca;
    return i;
}

Inst
microSimple(Op op)
{
    Inst i;
    i.op = op;
    return i;
}

/** Header-touch micro-op; imm selects pendingAlloc (0) or pendingFree (1). */
Inst
microHeader(Op op, std::uint64_t which)
{
    Inst i;
    i.op = op;
    i.imm = which;
    return i;
}

} // namespace

Interpreter::Interpreter(const SimConfig &cfg, DataPath &dp,
                         MemorySystem &mem, Heap &heap, LockManager &locks,
                         BarrierManager &barriers, PlatformHooks &hooks)
    : cfg_(cfg),
      emitRecords_(cfg.mode != MonitorMode::kNoMonitoring), dp_(dp),
      mem_(mem), heap_(heap), locks_(locks), barriers_(barriers),
      hooks_(hooks)
{
}

AccessTag
Interpreter::tagFor(const ThreadContext &tc, Cycle now) const
{
    return AccessTag{tc.tid(), tc.retired, now};
}

Addr
Interpreter::effectiveAddr(const ThreadContext &tc, const Inst &inst)
{
    return (inst.addrReg == kNoReg) ? inst.addr
                                    : tc.regs[inst.addrReg] + inst.addr;
}

void
Interpreter::blocked(ThreadContext &tc, const Inst &inst, BlockReason reason,
                     StepOutcome &out)
{
    tc.retry(inst);
    tc.blockReason = reason;
    out.kind = StepOutcome::Kind::kBlocked;
    out.latency = cfg_.retryInterval;
}

void
Interpreter::step(ThreadContext &tc, CoreId core, Cycle now,
                  StepOutcome &out)
{
    tc.blockReason = BlockReason::kNone;
    Inst inst;
    if (tc.done() || !tc.fetch(inst)) {
        out.kind = StepOutcome::Kind::kDone;
        out.latency = 0;
        return;
    }
    execute(tc, core, now, inst, out);
}

void
Interpreter::expandMalloc(ThreadContext &tc, const Inst &inst)
{
    // Mirrors a locked wrapper around malloc(): the allocator mutates
    // only its free-list/header lines under the *owning arena's* lock
    // (per-thread arenas, like a modern malloc), then announces the
    // allocation as a high-level event (CA-End semantics: lifeguards
    // care about the *end* of malloc).
    Addr lock = heap_.lockAddr(tc.tid() % heap_.arenaCount());
    Inst core_op = inst;
    core_op.op = Op::kMallocCore;
    tc.pushMicroOps({
        Inst::lock(lock),
        core_op,
        microHeader(Op::kHeaderLoad, 0),
        microHeader(Op::kHeaderStore, 0),
        microHighLevel(HighLevelKind::kMallocEnd, AddrRange{},
                       cfg_.conflictAlerts),
        Inst::unlock(lock),
    });
}

void
Interpreter::expandFree(ThreadContext &tc, const Inst &inst)
{
    // CA-Begin semantics: the alert precedes the metadata mutation so
    // remote accelerator state is flushed before blocks are recycled.
    // The freed block's owning arena is locked (usually the caller's).
    Addr payload = tc.regs[inst.src];
    Addr lock = heap_.lockAddr(heap_.arenaOf(payload));
    Inst core_op = inst;
    core_op.op = Op::kFreeCore;
    tc.pushMicroOps({
        Inst::lock(lock),
        core_op,
        microHighLevel(HighLevelKind::kFreeBegin, AddrRange{},
                       cfg_.conflictAlerts),
        microHeader(Op::kHeaderLoad, 1),
        microHeader(Op::kHeaderStore, 1),
        Inst::unlock(lock),
    });
}

void
Interpreter::expandSyscall(ThreadContext &tc, const Inst &inst)
{
    AddrRange range{inst.addr, inst.addr + inst.size};
    Inst copy;
    copy.op = Op::kKernelCopy;
    copy.addr = inst.addr;
    copy.size = inst.size;
    copy.imm = (inst.op == Op::kSyscallRead) ? 1 : 0;

    // Damage containment (paper section 3): the application waits at
    // the system call until its lifeguard drains the log.
    tc.pushMicroOp(microSimple(Op::kDrainWait));
    Inst begin = microHighLevel(HighLevelKind::kSyscallBegin, range,
                                cfg_.conflictAlerts);
    begin.imm = (inst.op == Op::kSyscallRead) ? 1 : 2;
    Inst end = microHighLevel(HighLevelKind::kSyscallEnd, range,
                              cfg_.conflictAlerts);
    end.imm = begin.imm;
    tc.pushMicroOp(begin);
    tc.pushMicroOp(copy);
    tc.pushMicroOp(end);
}

void
Interpreter::execute(ThreadContext &tc, CoreId core, Cycle now,
                     const Inst &inst, StepOutcome &out)
{
    out.kind = StepOutcome::Kind::kRetired;
    out.latency = 1;
    out.event.arcs.clear();
    out.event.versionRequests.clear();
    out.event.caBroadcast = false;
    out.event.caKind = HighLevelKind::kMallocEnd;
    EventRecord &rec = out.event.record;
    if (emitRecords_)
        rec.reset();
    rec.tid = tc.tid();
    rec.rid = tc.retired;
    AccessTag tag = tagFor(tc, now);

    switch (inst.op) {
      case Op::kNop:
        break;

      case Op::kLoad: {
        Addr ea = effectiveAddr(tc, inst);
        auto lr = dp_.load(core, ea, inst.size, tag);
        tc.regs[inst.dst] = lr.value;
        out.latency = std::max<Cycle>(1, lr.access.latency);
        out.event.arcs = std::move(lr.access.arcs);
        rec.type = EventType::kLoad;
        rec.dst = inst.dst;
        rec.addr = ea;
        rec.size = static_cast<std::uint8_t>(inst.size);
        break;
      }

      case Op::kStore: {
        Addr ea = effectiveAddr(tc, inst);
        if (!dp_.storeSpace(core))
            return blocked(tc, inst, BlockReason::kStoreBuffer, out);
        auto ar = dp_.store(core, ea, inst.size, tc.regs[inst.src], tag);
        out.latency = std::max<Cycle>(1, ar.latency);
        out.event.arcs = std::move(ar.arcs);
        out.event.versionRequests = std::move(ar.versionRequests);
        rec.type = EventType::kStore;
        rec.src = inst.src;
        rec.addr = ea;
        rec.size = static_cast<std::uint8_t>(inst.size);
        break;
      }

      case Op::kMovRR:
        tc.regs[inst.dst] = tc.regs[inst.src];
        rec.type = EventType::kMovRR;
        rec.dst = inst.dst;
        rec.src = inst.src;
        break;

      case Op::kMovImm:
        tc.regs[inst.dst] = inst.imm;
        rec.type = EventType::kMovImm;
        rec.dst = inst.dst;
        rec.value = inst.imm;
        break;

      case Op::kAlu:
        tc.regs[inst.dst] = tc.regs[inst.dst] + tc.regs[inst.src];
        rec.type = EventType::kAlu;
        rec.dst = inst.dst;
        rec.src = inst.src;
        out.latency = cfg_.aluLatency;
        break;

      case Op::kAluImm:
        tc.regs[inst.dst] += inst.imm;
        // Metadata of dst is unchanged by an immediate operand; no event
        // is needed for propagation-style lifeguards.
        break;

      case Op::kJumpReg:
        rec.type = EventType::kJump;
        rec.src = inst.src;
        rec.value = tc.regs[inst.src];
        break;

      case Op::kMalloc:
        expandMalloc(tc, inst);
        out.latency = 1;
        break;

      case Op::kFree:
        expandFree(tc, inst);
        out.latency = 1;
        break;

      case Op::kSyscallRead:
      case Op::kSyscallWrite:
        expandSyscall(tc, inst);
        out.latency = 1;
        break;

      case Op::kLock: {
        // A fence first: acquiring a lock drains the TSO store buffer.
        Cycle drain = dp_.fence(core);
        if (!locks_.tryAcquire(inst.addr, tc.tid())) {
            blocked(tc, inst, BlockReason::kLock, out);
            out.latency += drain;
            lockSpinsCtr_.inc();
            return;
        }
        auto ar = dp_.store(core, inst.addr, 8, tc.tid() + 1, tag);
        out.latency = std::max<Cycle>(1, ar.latency) + drain;
        out.event.arcs = std::move(ar.arcs);
        rec.type = EventType::kLockAcquire;
        rec.addr = inst.addr;
        lockAcquiresCtr_.inc();
        break;
      }

      case Op::kUnlock: {
        Cycle drain = dp_.fence(core);
        locks_.release(inst.addr, tc.tid());
        auto ar = dp_.store(core, inst.addr, 8, 0, tag);
        out.latency = std::max<Cycle>(1, ar.latency) + drain;
        out.event.arcs = std::move(ar.arcs);
        rec.type = EventType::kLockRelease;
        rec.addr = inst.addr;
        break;
      }

      case Op::kBarrier: {
        const bool wait_phase = (inst.imm >> 32) != 0;
        if (!wait_phase) {
            // Arrival: fence, then RMW the barrier word so later
            // arrivals (and the eventual release read) are ordered
            // after us by coherence arcs.
            Cycle drain = dp_.fence(core);
            barriers_.arrive(inst.addr, tc.tid(),
                             static_cast<std::uint32_t>(inst.imm));
            auto ar = dp_.store(core, inst.addr, 8, tc.tid() + 1, tag);
            out.latency = std::max<Cycle>(1, ar.latency) + drain;
            out.event.arcs = std::move(ar.arcs);
            rec.type = EventType::kBarrierPass;
            rec.addr = inst.addr;
            Inst wait = inst;
            wait.imm |= 1ULL << 32;
            tc.pushMicroOp(wait);
            barrierArrivalsCtr_.inc();
        } else {
            if (!barriers_.isReleased(inst.addr, tc.tid()))
                return blocked(tc, inst, BlockReason::kBarrier, out);
            barriers_.depart(inst.addr, tc.tid());
            // Read the barrier word: the coherence arc from the last
            // arriver's store orders every lifeguard after the release.
            auto lr = dp_.load(core, inst.addr, 8, tag);
            out.latency = std::max<Cycle>(1, lr.access.latency);
            out.event.arcs = std::move(lr.access.arcs);
            rec.type = EventType::kBarrierPass;
            rec.addr = inst.addr;
            rec.value = 1; // exit phase: a read of the barrier word
        }
        break;
      }

      case Op::kDone: {
        Cycle drain = dp_.fence(core);
        out.latency = 1 + drain;
        rec.type = EventType::kThreadDone;
        tc.markDone();
        break;
      }

      // ------- internal micro-ops -------

      case Op::kMallocCore: {
        Addr payload = heap_.allocate(inst.imm, tc.tid());
        if (payload == 0)
            fatal("simulated heap exhausted (alloc of %llu bytes)",
                  static_cast<unsigned long long>(inst.imm));
        tc.regs[inst.dst] = payload;
        tc.pendingAlloc = AddrRange{payload, payload + inst.imm};
        // The pointer write into dst clears its metadata (like mov imm).
        rec.type = EventType::kMovImm;
        rec.dst = inst.dst;
        rec.value = payload;
        break;
      }

      case Op::kFreeCore: {
        Addr payload = tc.regs[inst.src];
        std::uint64_t size = heap_.blockSize(payload);
        if (size == 0) {
            warn("application double-free/invalid free of %#llx",
                 static_cast<unsigned long long>(payload));
            tc.pendingFree = AddrRange{};
        } else {
            tc.pendingFree = AddrRange{payload, payload + size};
            heap_.release(payload);
        }
        break;
      }

      case Op::kHeaderLoad: {
        AddrRange r = (inst.imm == 0) ? tc.pendingAlloc : tc.pendingFree;
        if (r.empty())
            break;
        auto lr = dp_.load(core, Heap::headerAddr(r.begin), 8, tag);
        out.latency = std::max<Cycle>(1, lr.access.latency);
        out.event.arcs = std::move(lr.access.arcs);
        rec.type = EventType::kLoad;
        rec.dst = kNumRegs - 1; // scratch register
        rec.addr = Heap::headerAddr(r.begin);
        rec.size = 8;
        rec.wrapper = true;
        break;
      }

      case Op::kHeaderStore: {
        AddrRange r = (inst.imm == 0) ? tc.pendingAlloc : tc.pendingFree;
        if (r.empty())
            break;
        if (!dp_.storeSpace(core))
            return blocked(tc, inst, BlockReason::kStoreBuffer, out);
        auto ar = dp_.store(core, Heap::headerAddr(r.begin), 8,
                            r.size(), tag);
        out.latency = std::max<Cycle>(1, ar.latency);
        out.event.arcs = std::move(ar.arcs);
        out.event.versionRequests = std::move(ar.versionRequests);
        rec.type = EventType::kStore;
        rec.src = kNumRegs - 1;
        rec.addr = Heap::headerAddr(r.begin);
        rec.size = 8;
        rec.wrapper = true;
        break;
      }

      case Op::kHighLevel: {
        auto kind = static_cast<HighLevelKind>(inst.hlKind);
        AddrRange range = inst.range;
        switch (kind) {
          case HighLevelKind::kMallocEnd:
            range = tc.pendingAlloc;
            rec.type = EventType::kMallocEnd;
            break;
          case HighLevelKind::kFreeBegin:
            range = tc.pendingFree;
            rec.type = EventType::kFreeBegin;
            break;
          case HighLevelKind::kSyscallBegin:
            rec.type = EventType::kSyscallBegin;
            rec.syscall = (inst.imm == 1) ? SyscallKind::kRead
                                          : SyscallKind::kWrite;
            break;
          case HighLevelKind::kSyscallEnd:
            rec.type = EventType::kSyscallEnd;
            rec.syscall = (inst.imm == 1) ? SyscallKind::kRead
                                          : SyscallKind::kWrite;
            break;
        }
        rec.setRange(range);
        out.event.caBroadcast = inst.ca;
        out.event.caKind = kind;
        break;
      }

      case Op::kDrainWait:
        if (!hooks_.lifeguardDrained(tc.tid())) {
            drainStallsCtr_.inc();
            return blocked(tc, inst, BlockReason::kDrain, out);
        }
        break;

      case Op::kKernelCopy: {
        // The OS writes the buffer without producing events or arcs.
        if (inst.imm == 1) {
            for (std::uint32_t off = 0; off < inst.size; off += 8) {
                unsigned n = std::min<std::uint32_t>(8, inst.size - off);
                std::uint64_t v = (inst.addr + off) ^ 0x5ca1ab1e5ca1ab1eULL;
                mem_.kernelWrite(inst.addr + off, n, v);
            }
        }
        out.latency = 200 + inst.size / 8; // syscall cost model
        break;
      }

      default:
        panic("unhandled op %d", static_cast<int>(inst.op));
    }

    retiredCtr_.inc();
}

} // namespace paralog
