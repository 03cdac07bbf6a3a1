/**
 * @file
 * Unit tests for the accelerators: IT (including the Figure 3 scenario
 * and delayed advertising), IF, and the M-TLB.
 */

#include <gtest/gtest.h>

#include "accel/accel_unit.hpp"

namespace paralog {
namespace {

EventRecord
rec(EventType type, RecordId rid)
{
    EventRecord r;
    r.type = type;
    r.tid = 0;
    r.rid = rid;
    return r;
}

EventRecord
loadRec(RegId dst, Addr addr, RecordId rid, std::uint8_t size = 8)
{
    EventRecord r = rec(EventType::kLoad, rid);
    r.dst = dst;
    r.addr = addr;
    r.size = size;
    return r;
}

EventRecord
storeRec(RegId src, Addr addr, RecordId rid, std::uint8_t size = 8)
{
    EventRecord r = rec(EventType::kStore, rid);
    r.src = src;
    r.addr = addr;
    r.size = size;
    return r;
}

EventRecord
movRec(RegId dst, RegId src, RecordId rid)
{
    EventRecord r = rec(EventType::kMovRR, rid);
    r.dst = dst;
    r.src = src;
    return r;
}

// ---------- ItTable ----------

TEST(ItTable, Figure3Scenario)
{
    // i:   mov %eax <- A       (absorbed; row eax = {A, i})
    // i+1: mov %ebx <- %eax    (absorbed; row ebx = {A, i})
    // i+2: mov B <- %ebx       (delivers mem_to_mem(B, A))
    ItTable it;
    std::vector<LgEvent> out;
    EXPECT_TRUE(it.process(loadRec(1, 0xA00, 100), out));
    EXPECT_TRUE(it.process(movRec(2, 1, 101), out));
    EXPECT_TRUE(out.empty());

    EXPECT_EQ(it.row(1).src[0].addr, 0xA00u);
    EXPECT_EQ(it.row(2).src[0].rid, 100u); // rid copied with the row

    EXPECT_TRUE(it.process(storeRec(2, 0xB00, 102), out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemToMem);
    EXPECT_EQ(out[0].addr, 0xB00u);
    EXPECT_EQ(out[0].srcs[0].addr, 0xA00u);
}

TEST(ItTable, DelayedAdvertisingMinRid)
{
    // Figure 3(b): progress is the minimum RID held in the table.
    ItTable it;
    std::vector<LgEvent> out;
    EXPECT_EQ(it.minRid(), kInvalidRecord);
    it.process(loadRec(1, 0xA00, 100), out); // eax <- A at rid 100
    it.process(movRec(2, 1, 101), out);      // ebx inherits rid 100
    it.process(loadRec(1, 0xC00, 103), out); // eax <- C at rid 103
    EXPECT_EQ(it.minRid(), 100u); // ebx still pins rid 100
    it.process(loadRec(2, 0xD00, 104), out); // ebx overwritten
    EXPECT_EQ(it.minRid(), 103u); // now the C load is the oldest
}

TEST(ItTable, MovImmTracksConstant)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord mi = rec(EventType::kMovImm, 1);
    mi.dst = 3;
    EXPECT_TRUE(it.process(mi, out));
    EXPECT_EQ(it.row(3).state, ItTable::RowState::kConst);
    // Store of a constant register: set-const event.
    EXPECT_TRUE(it.process(storeRec(3, 0xE00, 2), out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemSetConst);
}

TEST(ItTable, AluMergesSources)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(loadRec(2, 0xB00, 2), out);
    EventRecord alu = rec(EventType::kAlu, 3);
    alu.dst = 1;
    alu.src = 2;
    EXPECT_TRUE(it.process(alu, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(it.row(1).nsrc, 2u);
    // Store delivers both inherits-from addresses.
    it.process(storeRec(1, 0xC00, 4), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].nsrcs, 2u);
}

TEST(ItTable, AluSourceOverflowFlushes)
{
    ItTable it;
    std::vector<LgEvent> out;
    // Merge kItMaxSources distinct addresses into r1 ...
    it.process(loadRec(1, 0x100, 1), out);
    for (unsigned i = 1; i < kItMaxSources; ++i) {
        it.process(loadRec(2, 0x100 + 0x100 * i, 1 + i), out);
        EventRecord alu = rec(EventType::kAlu, 10 + i);
        alu.dst = 1;
        alu.src = 2;
        ASSERT_TRUE(it.process(alu, out));
    }
    EXPECT_EQ(it.row(1).nsrc, kItMaxSources);
    // ... the next distinct source overflows and falls back.
    it.process(loadRec(2, 0x900, 50), out);
    EventRecord alu = rec(EventType::kAlu, 51);
    alu.dst = 1;
    alu.src = 2;
    out.clear();
    EXPECT_FALSE(it.process(alu, out));
    EXPECT_GE(out.size(), 2u); // both rows flushed as inherit events
}

TEST(ItTable, LocalConflictFlushesOtherRows)
{
    // A store overwriting an inherits-from address must flush rows that
    // reference it (sequential-setting rule, section 4.1).
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(loadRec(2, 0xB00, 2), out);
    // Store through r2 to 0xA00 conflicts with r1's row.
    it.process(storeRec(2, 0xA00, 3), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem); // r1 flushed
    EXPECT_EQ(out[0].dst, 1);
    EXPECT_EQ(out[1].type, LgEventType::kMemToMem);
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kInvalid);
}

TEST(ItTable, SelfRmwKeepsRow)
{
    // Read-modify-write through the stored register itself is exempt:
    // meta(A) after mem_to_mem(A, {A}) equals the row's state.
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(storeRec(1, 0xA00, 2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemToMem);
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kAddr); // row survives
}

TEST(ItTable, VersionedLoadDeliversAndFlushes)
{
    // Section 5.5: IT cannot differentiate metadata versions.
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    EventRecord vload = loadRec(2, 0xA00, 5);
    vload.consumesVersion = true;
    vload.setVersion(VersionTag{1, 3});
    EXPECT_FALSE(it.process(vload, out)); // delivered, not absorbed
    ASSERT_EQ(out.size(), 1u);            // r1's pending state flushed
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
}

TEST(ItTable, FlushOlderThanIsSelective)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 10), out);
    it.process(loadRec(2, 0xB00, 500), out);
    it.flushOlderThan(100, out);
    EXPECT_EQ(out.size(), 1u); // only the stale row
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kInvalid);
    EXPECT_EQ(it.row(2).state, ItTable::RowState::kAddr);
}

TEST(ItTable, JumpThroughTrackedRegister)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    EventRecord jmp = rec(EventType::kJump, 2);
    jmp.src = 1;
    EXPECT_TRUE(it.process(jmp, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kJumpMem);
    EXPECT_EQ(out[0].srcs[0].addr, 0xA00u);
}

TEST(ItTable, JumpThroughConstantAbsorbed)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord mi = rec(EventType::kMovImm, 1);
    mi.dst = 1;
    it.process(mi, out);
    EventRecord jmp = rec(EventType::kJump, 2);
    jmp.src = 1;
    EXPECT_TRUE(it.process(jmp, out));
    EXPECT_TRUE(out.empty()); // provably safe, never delivered
}

// ---------- IdempotentFilter ----------

TEST(IdempotentFilter, AbsorbsRepeatedChecks)
{
    IdempotentFilter f(16);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // first: miss
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, false));  // repeat: hit
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, true));  // writes differ
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, true));
}

TEST(IdempotentFilter, InvalidateAllOnHighLevelEvent)
{
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.invalidateAll();
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // miss again
}

TEST(IdempotentFilter, InvalidateOverlappingOnly)
{
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.invalidateOverlapping(0x100, 8);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false));
    EXPECT_TRUE(f.checkAndInsert(0x200, 8, false));
}

TEST(IdempotentFilter, LruEviction)
{
    IdempotentFilter f(2);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.checkAndInsert(0x100, 8, false); // refresh 0x100
    f.checkAndInsert(0x300, 8, false); // evicts 0x200
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, false));
    EXPECT_FALSE(f.checkAndInsert(0x200, 8, false));
}

TEST(IdempotentFilter, VersionedAccessInvalidatesStaleChecks)
{
    // A consume-version access proves a concurrent conflicting writer:
    // cached checks of those bytes predate the conflict and must not
    // absorb later ones.
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.invalidateVersioned(0x100, 8);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // re-checked
    EXPECT_TRUE(f.checkAndInsert(0x200, 8, false));  // untouched
    EXPECT_EQ(f.stats.get("version_invalidations"), 1u);
}

// ---------- MetadataTlb ----------

TEST(Mtlb, HitAfterMiss)
{
    MetadataTlb tlb(16, true);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
    EXPECT_EQ(tlb.lookupCost(0x1008), MetadataTlb::kHitCost); // same page
    EXPECT_EQ(tlb.lookupCost(0x2000), MetadataTlb::kMissCost);
}

TEST(Mtlb, DisabledAlwaysPaysWalk)
{
    MetadataTlb tlb(16, false);
    tlb.lookupCost(0x1000);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
}

TEST(Mtlb, LruCapacity)
{
    MetadataTlb tlb(2, true);
    tlb.lookupCost(0x1000);
    tlb.lookupCost(0x2000);
    tlb.lookupCost(0x3000); // evicts 0x1000
    EXPECT_EQ(tlb.lookupCost(0x2000), MetadataTlb::kHitCost);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
}

// ---------- AccelUnit integration ----------

class AccelUnitTest : public ::testing::Test
{
  protected:
    AccelUnitTest() : cfg(SimConfig::forAppThreads(2))
    {
        policy.usesIt = true;
        policy.usesIf = false;
    }

    SimConfig cfg;
    LifeguardPolicy policy;
};

TEST_F(AccelUnitTest, CaRecordFlushesItState)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    EXPECT_TRUE(out.empty());
    EXPECT_NE(au.delayedMinRid(), kInvalidRecord);

    EventRecord ca = rec(EventType::kCaBegin, 2);
    ca.caKind = HighLevelKind::kFreeBegin;
    ca.setRange(AddrRange{0xA00, 0xB00});
    au.process(ca, false, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord); // flushed
    // The flush delivered the pending inherit plus the CA flush event.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
    EXPECT_EQ(out[1].type, LgEventType::kCaFlush);

    // A syscall CA flushes IT just the same.
    out.clear();
    au.process(loadRec(1, 0xA00, 3), false, out);
    EXPECT_NE(au.delayedMinRid(), kInvalidRecord);
    EventRecord sys = rec(EventType::kCaBegin, 4);
    sys.caKind = HighLevelKind::kSyscallBegin;
    au.process(sys, false, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
    EXPECT_EQ(out[1].type, LgEventType::kCaFlush);
}

TEST_F(AccelUnitTest, DisabledAcceleratorsDeliverEverything)
{
    SimConfig off = cfg;
    off.accel.inheritanceTracking = false;
    off.accel.idempotentFilter = false;
    off.accel.metadataTlb = false;
    AccelUnit au(off, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kLoad);
}

TEST_F(AccelUnitTest, RacesSyscallStampedOnMemEvents)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), true, out);   // absorbed anyway
    au.process(storeRec(1, 0xB00, 2), true, out);  // mem_to_mem
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].racesSyscall);
}

TEST_F(AccelUnitTest, ThresholdFlushRefreshesProgress)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    au.maybeThresholdFlush(1 + cfg.accel.advertiseThreshold + 1, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
}

TEST_F(AccelUnitTest, StallFlushDeliversState)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    au.onStall(out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    EXPECT_EQ(out.size(), 1u);
}

TEST_F(AccelUnitTest, IfAbsorbsForAddrCheckStylePolicy)
{
    LifeguardPolicy p;
    p.usesIt = false;
    p.usesIf = true;
    AccelUnit au(cfg, p);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    ASSERT_EQ(out.size(), 1u); // first check delivered
    out.clear();
    au.process(loadRec(1, 0xA00, 2), false, out);
    EXPECT_TRUE(out.empty()); // idempotent repeat absorbed
    // Stores are filtered like loads.
    au.process(storeRec(1, 0xB00, 3), false, out);
    ASSERT_EQ(out.size(), 1u);
    out.clear();
    au.process(storeRec(1, 0xB00, 4), false, out);
    EXPECT_TRUE(out.empty());
    // Absorbed checks leave nothing pending: IF never delays advertising.
    EXPECT_GT(au.ifilter().size(), 0u);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    // A syscall CA leaves the filter live.
    EventRecord sys = rec(EventType::kCaBegin, 5);
    sys.caKind = HighLevelKind::kSyscallBegin;
    au.process(sys, false, out);
    out.clear();
    au.process(loadRec(1, 0xA00, 6), false, out);
    EXPECT_TRUE(out.empty());
    // malloc CA invalidates the filter.
    EventRecord ca = rec(EventType::kCaEnd, 7);
    ca.caKind = HighLevelKind::kMallocEnd;
    au.process(ca, false, out);
    out.clear();
    au.process(loadRec(1, 0xA00, 8), false, out);
    EXPECT_EQ(out.size(), 1u); // delivered again
}

} // namespace
} // namespace paralog
