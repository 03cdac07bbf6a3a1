#include "app/event.hpp"

namespace paralog {

std::uint32_t
EventRecord::compressedBytes() const
{
    // Compression model from the LBA work: common instruction records
    // average ~1 byte; dependence arcs, versions and high-level records
    // carry extra payload.
    std::uint32_t bytes;
    switch (type) {
      case EventType::kLoad:
      case EventType::kStore:
      case EventType::kMovRR:
      case EventType::kMovImm:
      case EventType::kAlu:
      case EventType::kJump:
        bytes = 1;
        break;
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
        bytes = 2;
        break;
      default:
        bytes = 8; // high-level / CA / version records
        break;
    }
    bytes += 4 * static_cast<std::uint32_t>(arcs().size());
    if (consumesVersion || version().valid())
        bytes += 4;
    return bytes;
}

const char *
toString(EventType t)
{
    switch (t) {
      case EventType::kNone: return "none";
      case EventType::kLoad: return "load";
      case EventType::kStore: return "store";
      case EventType::kMovRR: return "mov_rr";
      case EventType::kMovImm: return "mov_imm";
      case EventType::kAlu: return "alu";
      case EventType::kJump: return "jump";
      case EventType::kMallocEnd: return "malloc_end";
      case EventType::kFreeBegin: return "free_begin";
      case EventType::kSyscallBegin: return "syscall_begin";
      case EventType::kSyscallEnd: return "syscall_end";
      case EventType::kLockAcquire: return "lock_acquire";
      case EventType::kLockRelease: return "lock_release";
      case EventType::kBarrierPass: return "barrier_pass";
      case EventType::kThreadDone: return "thread_done";
      case EventType::kThreadSwitch: return "thread_switch";
      case EventType::kCaBegin: return "ca_begin";
      case EventType::kCaEnd: return "ca_end";
      case EventType::kProduceVersion: return "produce_version";
    }
    return "?";
}

} // namespace paralog
