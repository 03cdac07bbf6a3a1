#include "accel/accel_unit.hpp"

#include "common/logging.hpp"

namespace paralog {

AccelUnit::AccelUnit(const SimConfig &cfg, const LifeguardPolicy &policy)
    : cfg_(cfg),
      itEnabled_(cfg.accel.inheritanceTracking && policy.usesIt),
      ifEnabled_(cfg.accel.idempotentFilter && policy.usesIf),
      if_(cfg.accel.ifEntries),
      mtlb_(cfg.accel.mtlbEntries, cfg.accel.metadataTlb)
{
    it_.setExemptSelfRmw(policy.itExemptSelfRmw);
    it_.setFlushOnOverwrite(policy.itFlushOnOverwrite);
}

void
AccelUnit::highLevelFlush(HighLevelKind kind, std::vector<LgEvent> &out)
{
    if (itEnabled_)
        it_.flushAll(out);
    if (ifEnabled_ && (kind == HighLevelKind::kMallocEnd ||
                       kind == HighLevelKind::kFreeBegin))
        if_.invalidateAll();
}

void
AccelUnit::process(const EventRecord &rec, bool races_syscall,
                   std::vector<LgEvent> &out)
{
    const std::size_t first_new = out.size();

    if (rec.type != EventType::kThreadSwitch &&
        rec.tid != kInvalidThread) {
        regOwner_ = rec.tid;
    }

    switch (rec.type) {
      case EventType::kLoad:
      case EventType::kStore:
      case EventType::kMovRR:
      case EventType::kMovImm:
      case EventType::kAlu:
      case EventType::kJump: {
        bool absorbed = false;
        if (itEnabled_)
            absorbed = it_.process(rec, out);

        if (!absorbed && ifEnabled_ && rec.isMemAccess()) {
            if (rec.consumesVersion) {
                // Versioned access: never absorbed (the check is not
                // idempotent across the conflict), and any cached
                // check of these bytes is stale — a hit would absorb a
                // post-conflict check against pre-conflict state.
                if_.invalidateVersioned(rec.addr, rec.size);
            } else {
                absorbed = if_.checkAndInsert(
                    rec.addr, rec.size, rec.type == EventType::kStore);
            }
        }

        if (!absorbed) {
            LgEvent &ev = out.emplace_back();
            switch (rec.type) {
              case EventType::kLoad: ev.type = LgEventType::kLoad; break;
              case EventType::kStore: ev.type = LgEventType::kStore; break;
              case EventType::kMovRR: ev.type = LgEventType::kMovRR; break;
              case EventType::kMovImm:
                ev.type = LgEventType::kMovImm;
                break;
              case EventType::kAlu: ev.type = LgEventType::kAlu; break;
              case EventType::kJump:
                ev.type = LgEventType::kJumpReg;
                break;
              default: break;
            }
            ev.dst = rec.dst;
            ev.src = rec.src;
            ev.addr = rec.addr;
            ev.size = rec.size;
            ev.value = rec.value;
            ev.consumesVersion = rec.consumesVersion;
            ev.version = rec.version();
        }
        break;
      }

      case EventType::kMallocEnd: {
        highLevelFlush(HighLevelKind::kMallocEnd, out);
        LgEvent &ev = out.emplace_back();
        ev.type = LgEventType::kMalloc;
        ev.range = rec.range();
        break;
      }

      case EventType::kFreeBegin: {
        highLevelFlush(HighLevelKind::kFreeBegin, out);
        LgEvent &ev = out.emplace_back();
        ev.type = LgEventType::kFree;
        ev.range = rec.range();
        break;
      }

      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd: {
        HighLevelKind kind = (rec.type == EventType::kSyscallBegin)
                                 ? HighLevelKind::kSyscallBegin
                                 : HighLevelKind::kSyscallEnd;
        highLevelFlush(kind, out);
        LgEvent &ev = out.emplace_back();
        ev.type = (rec.type == EventType::kSyscallBegin)
                      ? LgEventType::kSyscallBegin
                      : LgEventType::kSyscallEnd;
        ev.range = rec.range();
        ev.syscall = rec.syscall;
        break;
      }

      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
      case EventType::kThreadDone: {
        LgEvent &ev = out.emplace_back();
        switch (rec.type) {
          case EventType::kLockAcquire:
            ev.type = LgEventType::kLockAcquire;
            break;
          case EventType::kLockRelease:
            ev.type = LgEventType::kLockRelease;
            break;
          case EventType::kBarrierPass:
            ev.type = LgEventType::kBarrierPass;
            break;
          default:
            ev.type = LgEventType::kThreadDone;
            break;
        }
        ev.addr = rec.addr;
        break;
      }

      case EventType::kThreadSwitch: {
        // Timesliced mode: the register file changes hands, so IT state
        // is stale (the sequential-platform context-switch rule). The
        // flushed rows describe the *outgoing* thread's registers.
        if (itEnabled_) {
            it_.flushAll(out);
            for (std::size_t i = first_new; i < out.size(); ++i) {
                out[i].tid = regOwner_;
                out[i].rid = rec.rid;
            }
        }
        LgEvent &ev = out.emplace_back();
        ev.type = LgEventType::kThreadSwitch;
        ev.value = rec.value;
        regOwner_ = static_cast<ThreadId>(rec.value);
        break;
      }

      case EventType::kCaBegin:
      case EventType::kCaEnd: {
        highLevelFlush(rec.caKind, out);
        LgEvent &ev = out.emplace_back();
        ev.type = LgEventType::kCaFlush;
        ev.range = rec.range();
        ev.value = rec.value;
        break;
      }

      case EventType::kProduceVersion: {
        // IT/IF state caching this address is version-ambiguous: flush.
        if (itEnabled_)
            it_.flushOverlapping(rec.addr, rec.size, out);
        if (ifEnabled_)
            if_.invalidateOverlapping(rec.addr, rec.size);
        LgEvent &ev = out.emplace_back();
        ev.type = LgEventType::kProduceVersion;
        ev.addr = rec.addr;
        ev.size = rec.size;
        ev.version = rec.version();
        break;
      }

      case EventType::kNone:
        break;
    }

    // Stamp identity and range-table race info on everything delivered.
    for (std::size_t i = first_new; i < out.size(); ++i) {
        if (out[i].tid == kInvalidThread)
            out[i].tid = rec.tid;
        out[i].rid = rec.rid;
        if (out[i].type == LgEventType::kLoad ||
            out[i].type == LgEventType::kStore ||
            out[i].type == LgEventType::kMemToMem) {
            out[i].racesSyscall = races_syscall;
        }
    }
}

void
AccelUnit::onStall(std::vector<LgEvent> &out)
{
    if (itEnabled_)
        it_.flushAll(out);
}

RecordId
AccelUnit::delayedMinRid() const
{
    return itEnabled_ ? it_.minRid() : kInvalidRecord;
}

void
AccelUnit::maybeThresholdFlush(RecordId last_processed,
                               std::vector<LgEvent> &out)
{
    RecordId min = delayedMinRid();
    if (min == kInvalidRecord)
        return;
    if (last_processed > min &&
        last_processed - min > cfg_.accel.advertiseThreshold) {
        it_.flushOlderThan(last_processed - cfg_.accel.advertiseThreshold,
                           out);
    }
}

} // namespace paralog

namespace paralog {

const char *
toString(LgEventType t)
{
    switch (t) {
      case LgEventType::kNone: return "none";
      case LgEventType::kLoad: return "load";
      case LgEventType::kStore: return "store";
      case LgEventType::kMovRR: return "mov_rr";
      case LgEventType::kMovImm: return "mov_imm";
      case LgEventType::kAlu: return "alu";
      case LgEventType::kJumpReg: return "jump_reg";
      case LgEventType::kMemToMem: return "mem_to_mem";
      case LgEventType::kMemSetConst: return "mem_set_const";
      case LgEventType::kRegInheritMem: return "reg_inherit_mem";
      case LgEventType::kRegInheritConst: return "reg_inherit_const";
      case LgEventType::kJumpMem: return "jump_mem";
      case LgEventType::kMalloc: return "malloc";
      case LgEventType::kFree: return "free";
      case LgEventType::kSyscallBegin: return "syscall_begin";
      case LgEventType::kSyscallEnd: return "syscall_end";
      case LgEventType::kLockAcquire: return "lock_acquire";
      case LgEventType::kLockRelease: return "lock_release";
      case LgEventType::kBarrierPass: return "barrier_pass";
      case LgEventType::kThreadDone: return "thread_done";
      case LgEventType::kThreadSwitch: return "thread_switch";
      case LgEventType::kCaFlush: return "ca_flush";
      case LgEventType::kProduceVersion: return "produce_version";
    }
    return "?";
}

} // namespace paralog
