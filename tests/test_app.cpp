/** @file Unit tests for the application runtime: heap, sync, interpreter. */

#include <gtest/gtest.h>

#include <vector>

#include "app/interpreter.hpp"
#include "mem/memory_system.hpp"

namespace paralog {
namespace {

TEST(Heap, AllocateAndRelease)
{
    Heap h(0x1000000, 1 << 20);
    Addr a = h.allocate(100);
    ASSERT_NE(a, 0u);
    EXPECT_TRUE(h.isLive(a));
    EXPECT_GE(h.blockSize(a), 100u);
    h.release(a);
    EXPECT_FALSE(h.isLive(a));
}

TEST(Heap, DistinctBlocks)
{
    Heap h(0x1000000, 1 << 20);
    Addr a = h.allocate(64);
    Addr b = h.allocate(64);
    EXPECT_NE(a, b);
    // Payloads must not overlap.
    EXPECT_TRUE(a + 64 <= b || b + 64 <= a);
}

TEST(Heap, ReuseAfterFree)
{
    Heap h(0x1000000, 1 << 20);
    Addr a = h.allocate(64);
    h.release(a);
    Addr b = h.allocate(64);
    EXPECT_EQ(a, b); // first-fit reuses the freed block
}

TEST(Heap, CoalescingAvoidsFragmentation)
{
    Heap h(0x1000000, 4096);
    std::vector<Addr> blocks;
    Addr a = 0;
    while ((a = h.allocate(64)) != 0)
        blocks.push_back(a);
    EXPECT_GT(blocks.size(), 10u);
    for (Addr b : blocks)
        h.release(b);
    // After freeing everything, a large block must fit again.
    EXPECT_NE(h.allocate(2048), 0u);
}

TEST(Heap, ExhaustionReturnsZero)
{
    Heap h(0x1000000, 1024);
    EXPECT_EQ(h.allocate(4096), 0u);
}

TEST(Heap, PerThreadArenasSeparate)
{
    Heap h(0x1000000, 1 << 20, 4);
    Addr a0 = h.allocate(64, 0);
    Addr a1 = h.allocate(64, 1);
    EXPECT_NE(h.arenaOf(a0), h.arenaOf(a1));
    EXPECT_NE(h.lockAddr(0), h.lockAddr(1));
}

TEST(Heap, ArenaFallbackOnExhaustion)
{
    Heap h(0x1000000, 4096, 2);
    // Exhaust arena 0.
    while (true) {
        Addr a = h.allocate(256, 0);
        if (a == 0)
            break;
        if (h.arenaOf(a) != 0)
            break; // fell back: done
    }
    EXPECT_GE(h.stats.get("arena_fallbacks"), 1u);
}

TEST(Heap, HeaderPrecedesPayload)
{
    Heap h(0x1000000, 1 << 20);
    Addr a = h.allocate(64);
    EXPECT_EQ(Heap::headerAddr(a), a - Heap::kHeaderBytes);
}

TEST(LockManager, AcquireRelease)
{
    LockManager lm;
    EXPECT_TRUE(lm.tryAcquire(0x100, 0));
    EXPECT_FALSE(lm.tryAcquire(0x100, 1));
    EXPECT_EQ(lm.owner(0x100), 0u);
    lm.release(0x100, 0);
    EXPECT_TRUE(lm.tryAcquire(0x100, 1));
}

TEST(LockManager, IndependentLocks)
{
    LockManager lm;
    EXPECT_TRUE(lm.tryAcquire(0x100, 0));
    EXPECT_TRUE(lm.tryAcquire(0x200, 1));
}

TEST(BarrierManager, ReleaseOnLastArrival)
{
    BarrierManager bm;
    EXPECT_FALSE(bm.arrive(0x100, 0, 3));
    EXPECT_FALSE(bm.isReleased(0x100, 0));
    EXPECT_FALSE(bm.arrive(0x100, 1, 3));
    EXPECT_TRUE(bm.arrive(0x100, 2, 3)); // last arriver releases
    EXPECT_TRUE(bm.isReleased(0x100, 0));
    EXPECT_TRUE(bm.isReleased(0x100, 1));
    EXPECT_TRUE(bm.isReleased(0x100, 2));
}

TEST(BarrierManager, Generations)
{
    BarrierManager bm;
    bm.arrive(0x100, 0, 2);
    bm.arrive(0x100, 1, 2);
    bm.depart(0x100, 0);
    bm.depart(0x100, 1);
    // Second generation: not released until both arrive again.
    bm.arrive(0x100, 0, 2);
    EXPECT_FALSE(bm.isReleased(0x100, 0));
    bm.arrive(0x100, 1, 2);
    EXPECT_TRUE(bm.isReleased(0x100, 0));
}

// ----- interpreter -----

class NullHooks : public PlatformHooks
{
  public:
    bool lifeguardDrained(ThreadId) override { return true; }
};

/** Fixed instruction list program. */
class ListProgram : public ThreadProgram
{
  public:
    explicit ListProgram(std::vector<Inst> insts)
        : insts_(std::move(insts))
    {
    }

    std::size_t
    take(std::vector<Inst> &out, ThreadContext &) override
    {
        if (pos_ >= insts_.size())
            return 0;
        out.push_back(insts_[pos_++]);
        return 1;
    }

  private:
    std::vector<Inst> insts_;
    std::size_t pos_ = 0;
};

class InterpTest : public ::testing::Test
{
  protected:
    InterpTest()
        : cfg(SimConfig::forAppThreads(1)), mem(cfg, 2),
          heap(0x1000000, 1 << 20), dp(mem),
          interp(cfg, dp, mem, heap, locks, barriers, hooks)
    {
    }

    /** Run one thread's program to completion; returns its records. */
    std::vector<EventRecord>
    runThread(std::vector<Inst> insts, ThreadId tid = 0)
    {
        ThreadContext tc(tid, std::make_unique<ListProgram>(insts));
        std::vector<EventRecord> records;
        Cycle now = 0;
        for (int guard = 0; guard < 100000; ++guard) {
            auto out = interp.step(tc, 0, now);
            if (out.kind == Interpreter::StepOutcome::Kind::kDone)
                break;
            now += out.latency;
            if (out.kind == Interpreter::StepOutcome::Kind::kRetired) {
                ++tc.retired;
                if (out.event.record.type != EventType::kNone)
                    records.push_back(out.event.record);
            }
        }
        lastTc_ = tc.regs;
        return records;
    }

    SimConfig cfg;
    MemorySystem mem;
    Heap heap;
    LockManager locks;
    BarrierManager barriers;
    NullHooks hooks;
    ScDataPath dp;
    Interpreter interp;
    std::array<std::uint64_t, kNumRegs> lastTc_{};
};

TEST_F(InterpTest, DataFlowThroughMemory)
{
    auto recs = runThread({
        Inst::movImm(1, 0xABCD),
        Inst::store(0x2000, 1, 8),
        Inst::load(2, 0x2000, 8),
        Inst::done(),
    });
    EXPECT_EQ(lastTc_[2], 0xABCDu);
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].type, EventType::kMovImm);
    EXPECT_EQ(recs[1].type, EventType::kStore);
    EXPECT_EQ(recs[2].type, EventType::kLoad);
    EXPECT_EQ(recs[3].type, EventType::kThreadDone);
}

TEST_F(InterpTest, IndirectAddressing)
{
    auto recs = runThread({
        Inst::movImm(1, 0x3000),   // r1 = pointer
        Inst::movImm(2, 77),
        Inst::storeInd(1, 8, 2, 8), // mem[r1+8] = 77
        Inst::loadInd(3, 1, 8, 8),  // r3 = mem[r1+8]
        Inst::done(),
    });
    EXPECT_EQ(lastTc_[3], 77u);
    EXPECT_EQ(recs[2].addr, 0x3008u); // record logs the effective addr
}

TEST_F(InterpTest, MallocExpandsToWrapperSequence)
{
    auto recs = runThread({
        Inst::malloc(1, 128),
        Inst::done(),
    });
    // Expect: lock-acquire, movImm(pointer), header load/store,
    // malloc_end, lock-release, done.
    std::vector<EventType> types;
    for (const auto &r : recs)
        types.push_back(r.type);
    EXPECT_EQ(types,
              (std::vector<EventType>{
                  EventType::kLockAcquire, EventType::kMovImm,
                  EventType::kLoad, EventType::kStore,
                  EventType::kMallocEnd, EventType::kLockRelease,
                  EventType::kThreadDone}));
    // The malloc_end record carries the allocated range.
    EXPECT_EQ(recs[4].range().size(), 128u);
    EXPECT_EQ(recs[4].range().begin, lastTc_[1]);
}

TEST_F(InterpTest, FreeCarriesRange)
{
    auto recs = runThread({
        Inst::malloc(1, 64),
        Inst::freeReg(1),
        Inst::done(),
    });
    bool found = false;
    for (const auto &r : recs) {
        if (r.type == EventType::kFreeBegin) {
            found = true;
            EXPECT_EQ(r.range().size(), 64u);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(heap.liveBlocks(), 0u);
}

TEST_F(InterpTest, FreeOnlyTouchesHeaders)
{
    // The paper's logical race: free() must not touch payload interior.
    auto recs = runThread({
        Inst::malloc(1, 1024),
        Inst::freeReg(1),
        Inst::done(),
    });
    Addr payload = lastTc_[1];
    for (const auto &r : recs) {
        if (!r.isMemAccess())
            continue;
        // No access may fall inside the payload interior.
        EXPECT_FALSE(r.addr >= payload && r.addr < payload + 1024)
            << "wrapper touched payload at " << std::hex << r.addr;
    }
}

TEST_F(InterpTest, SyscallReadFillsBufferAndEmitsRange)
{
    auto recs = runThread({
        Inst::syscallRead(0x4000, 64),
        Inst::load(1, 0x4000, 8),
        Inst::done(),
    });
    bool begin = false, end = false;
    for (const auto &r : recs) {
        if (r.type == EventType::kSyscallBegin) {
            begin = true;
            EXPECT_EQ(r.syscall, SyscallKind::kRead);
            EXPECT_EQ(r.range(), (AddrRange{0x4000, 0x4040}));
        }
        if (r.type == EventType::kSyscallEnd)
            end = true;
    }
    EXPECT_TRUE(begin);
    EXPECT_TRUE(end);
    EXPECT_NE(lastTc_[1], 0u); // kernel wrote data
}

TEST_F(InterpTest, AluImmEmitsNoRecord)
{
    auto recs = runThread({
        Inst::movImm(1, 5),
        Inst::aluImm(1, 3),
        Inst::done(),
    });
    EXPECT_EQ(lastTc_[1], 8u);
    // mov_imm + thread_done only: aluImm is metadata-invisible.
    EXPECT_EQ(recs.size(), 2u);
}

TEST_F(InterpTest, JumpEmitsRecordWithValue)
{
    auto recs = runThread({
        Inst::movImm(1, 0x5000),
        Inst::jumpReg(1),
        Inst::done(),
    });
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[1].type, EventType::kJump);
    EXPECT_EQ(recs[1].value, 0x5000u);
}

TEST_F(InterpTest, LockBlocksUntilReleased)
{
    // Thread 1 holds the lock; thread 0 must block.
    ASSERT_TRUE(locks.tryAcquire(0x100, 1));
    ThreadContext tc(0, std::make_unique<ListProgram>(std::vector<Inst>{
                            Inst::lock(0x100), Inst::done()}));
    auto out = interp.step(tc, 0, 0);
    EXPECT_EQ(out.kind, Interpreter::StepOutcome::Kind::kBlocked);
    EXPECT_EQ(tc.blockReason, BlockReason::kLock);
    locks.release(0x100, 1);
    out = interp.step(tc, 0, 100);
    EXPECT_EQ(out.kind, Interpreter::StepOutcome::Kind::kRetired);
    EXPECT_EQ(out.event.record.type, EventType::kLockAcquire);
}

TEST_F(InterpTest, AluLatencyModelsFp)
{
    ThreadContext tc(0, std::make_unique<ListProgram>(std::vector<Inst>{
                            Inst::alu(1, 2), Inst::done()}));
    auto out = interp.step(tc, 0, 0);
    EXPECT_EQ(out.latency, cfg.aluLatency);
}

} // namespace
} // namespace paralog
