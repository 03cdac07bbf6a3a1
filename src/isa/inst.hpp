/**
 * @file
 * The micro-ISA executed by simulated application threads.
 *
 * Workloads are instruction *generators* (see app/program.hpp): they emit
 * one instruction at a time and may inspect register values produced by
 * earlier instructions (enabling pointer-chasing workloads). High-level
 * operations (malloc/free/lock/syscall) are single generator-visible
 * instructions that the interpreter expands into micro-op sequences,
 * mirroring how a wrapper library wraps libc calls in LBA (section 5.4).
 */

#ifndef PARALOG_ISA_INST_HPP
#define PARALOG_ISA_INST_HPP

#include <cstdint>

#include "common/types.hpp"

namespace paralog {

enum class Op : std::uint8_t
{
    // Program-visible operations.
    kNop,
    kLoad,    ///< dst <- mem[addr]           (size bytes)
    kStore,   ///< mem[addr] <- src           (size bytes)
    kMovRR,   ///< dst <- src
    kMovImm,  ///< dst <- imm                 (untaints dst)
    kAlu,     ///< dst <- dst op src          (metadata union)
    kAluImm,  ///< dst <- dst op imm          (metadata unchanged)
    kJumpReg, ///< indirect jump through src  (TaintCheck critical use)
    kMalloc,  ///< dst <- malloc(imm)
    kFree,    ///< free(addr or reg src if addr==0)
    kLock,    ///< acquire lock at addr
    kUnlock,  ///< release lock at addr
    kBarrier, ///< phase barrier at addr, imm = participant count
    kSyscallRead,  ///< read(addr, size): kernel fills buffer (untrusted)
    kSyscallWrite, ///< write(addr, size): kernel reads buffer
    kDone,    ///< thread exit

    // Internal micro-ops produced by interpreter expansion only.
    kMallocCore, ///< run the allocator, bind pendingAlloc, set dst
    kFreeCore,   ///< look up block, bind pendingFree
    kHeaderLoad, ///< allocator metadata load (real coherence traffic)
    kHeaderStore,///< allocator metadata store
    kHighLevel,  ///< emit a high-level event record (+ optional CA)
    kDrainWait,  ///< damage containment: wait for lifeguard to drain log
    kKernelCopy, ///< unmonitored kernel write into a user buffer
};

/** True for micro-ops that programs must not emit directly. */
inline constexpr bool
isInternalOp(Op op)
{
    return op >= Op::kMallocCore;
}

/** Sentinel: absolute addressing (no base register). */
inline constexpr RegId kNoReg = 0xff;

struct Inst
{
    Op op = Op::kNop;
    RegId dst = 0;
    RegId src = 0;
    Addr addr = 0;          ///< absolute address or offset from addrReg
    RegId addrReg = kNoReg; ///< base register for indirect addressing
    std::uint32_t size = 0;
    std::uint64_t imm = 0;

    // Internal fields used by expanded micro-ops.
    AddrRange range{};
    std::uint8_t hlKind = 0; ///< HighLevelKind for kHighLevel
    bool ca = false;         ///< broadcast a ConflictAlert with the event

    static Inst
    load(RegId dst, Addr addr, std::uint32_t size = 8)
    {
        Inst i;
        i.op = Op::kLoad;
        i.dst = dst;
        i.addr = addr;
        i.size = size;
        return i;
    }

    static Inst
    store(Addr addr, RegId src, std::uint32_t size = 8)
    {
        Inst i;
        i.op = Op::kStore;
        i.src = src;
        i.addr = addr;
        i.size = size;
        return i;
    }

    /** dst <- mem[regs[base] + off] */
    static Inst
    loadInd(RegId dst, RegId base, std::uint64_t off,
            std::uint32_t size = 8)
    {
        Inst i;
        i.op = Op::kLoad;
        i.dst = dst;
        i.addr = off;
        i.addrReg = base;
        i.size = size;
        return i;
    }

    /** mem[regs[base] + off] <- src */
    static Inst
    storeInd(RegId base, std::uint64_t off, RegId src,
             std::uint32_t size = 8)
    {
        Inst i;
        i.op = Op::kStore;
        i.src = src;
        i.addr = off;
        i.addrReg = base;
        i.size = size;
        return i;
    }

    static Inst
    movRR(RegId dst, RegId src)
    {
        Inst i;
        i.op = Op::kMovRR;
        i.dst = dst;
        i.src = src;
        return i;
    }

    static Inst
    movImm(RegId dst, std::uint64_t imm)
    {
        Inst i;
        i.op = Op::kMovImm;
        i.dst = dst;
        i.imm = imm;
        return i;
    }

    static Inst
    alu(RegId dst, RegId src)
    {
        Inst i;
        i.op = Op::kAlu;
        i.dst = dst;
        i.src = src;
        return i;
    }

    static Inst
    aluImm(RegId dst, std::uint64_t imm)
    {
        Inst i;
        i.op = Op::kAluImm;
        i.dst = dst;
        i.imm = imm;
        return i;
    }

    static Inst
    jumpReg(RegId src)
    {
        Inst i;
        i.op = Op::kJumpReg;
        i.src = src;
        return i;
    }

    static Inst
    malloc(RegId dst, std::uint64_t bytes)
    {
        Inst i;
        i.op = Op::kMalloc;
        i.dst = dst;
        i.imm = bytes;
        return i;
    }

    static Inst
    freeReg(RegId src)
    {
        Inst i;
        i.op = Op::kFree;
        i.src = src;
        return i;
    }

    static Inst
    lock(Addr addr)
    {
        Inst i;
        i.op = Op::kLock;
        i.addr = addr;
        return i;
    }

    static Inst
    unlock(Addr addr)
    {
        Inst i;
        i.op = Op::kUnlock;
        i.addr = addr;
        return i;
    }

    static Inst
    barrier(Addr addr, std::uint32_t participants)
    {
        Inst i;
        i.op = Op::kBarrier;
        i.addr = addr;
        i.imm = participants;
        return i;
    }

    static Inst
    syscallRead(Addr buf, std::uint32_t len)
    {
        Inst i;
        i.op = Op::kSyscallRead;
        i.addr = buf;
        i.size = len;
        return i;
    }

    static Inst
    syscallWrite(Addr buf, std::uint32_t len)
    {
        Inst i;
        i.op = Op::kSyscallWrite;
        i.addr = buf;
        i.size = len;
        return i;
    }

    static Inst
    done()
    {
        Inst i;
        i.op = Op::kDone;
        return i;
    }
};

} // namespace paralog

#endif // PARALOG_ISA_INST_HPP
