/** @file Unit tests for the memory hierarchy and dependence capture. */

#include <gtest/gtest.h>

#include "mem/memory_system.hpp"

namespace paralog {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg = SimConfig::forAppThreads(2);
    return cfg;
}

class MemTest : public ::testing::Test
{
  protected:
    MemTest() : cfg(smallConfig()), mem(cfg, 4)
    {
        for (CoreId c = 0; c < 4; ++c)
            mem.bindThread(c, c);
    }

    AccessTag
    tag(ThreadId t, RecordId r, Cycle cyc = 0)
    {
        return AccessTag{t, r, cyc};
    }

    SimConfig cfg;
    MemorySystem mem;
};

TEST_F(MemTest, MainMemoryReadWrite)
{
    MainMemory &m = mem.memory();
    m.write(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788ULL);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344ULL);
    EXPECT_EQ(m.read(0x1007, 1), 0x11ULL);
}

TEST_F(MemTest, MainMemoryCrossPage)
{
    MainMemory &m = mem.memory();
    Addr a = MainMemory::kPageBytes - 4;
    m.write(a, 8, 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.read(a, 8), 0xAABBCCDDEEFF0011ULL);
    EXPECT_GE(m.pageCount(), 2u);
}

TEST_F(MemTest, UnwrittenMemoryReadsZero)
{
    EXPECT_EQ(mem.memory().read(0xDEAD0000, 8), 0u);
}

TEST_F(MemTest, L1HitLatency)
{
    AccessResult r1 = mem.access(0, 0x1000, 8, false, tag(0, 0), true);
    EXPECT_GT(r1.latency, cfg.l1d.hitLatency); // cold miss
    AccessResult r2 = mem.access(0, 0x1000, 8, false, tag(0, 1), true);
    EXPECT_EQ(r2.latency, cfg.l1d.hitLatency); // warm hit
}

TEST_F(MemTest, ColdMissGoesToMemory)
{
    AccessResult r = mem.access(0, 0x2000, 8, false, tag(0, 0), true);
    EXPECT_GE(r.latency, cfg.memLatency);
}

TEST_F(MemTest, L2HitAfterRemoteFill)
{
    // Core 0 loads (fills L2); core 1's miss should hit in L2.
    mem.access(0, 0x3000, 8, false, tag(0, 0), true);
    AccessResult r = mem.access(1, 0x3000, 8, false, tag(1, 0), true);
    EXPECT_LT(r.latency, cfg.memLatency);
    EXPECT_GE(r.latency, cfg.l2.hitLatency);
}

TEST_F(MemTest, StatesFollowMesi)
{
    mem.access(0, 0x4000, 8, false, tag(0, 0), true);
    EXPECT_EQ(mem.l1State(0, 0x4000), LineState::kExclusive);

    mem.access(0, 0x4000, 8, true, tag(0, 1), true);
    EXPECT_EQ(mem.l1State(0, 0x4000), LineState::kModified);

    mem.access(1, 0x4000, 8, false, tag(1, 0), true);
    EXPECT_EQ(mem.l1State(0, 0x4000), LineState::kShared);
    EXPECT_EQ(mem.l1State(1, 0x4000), LineState::kShared);

    mem.access(1, 0x4000, 8, true, tag(1, 1), true);
    EXPECT_EQ(mem.l1State(0, 0x4000), LineState::kInvalid);
    EXPECT_EQ(mem.l1State(1, 0x4000), LineState::kModified);
}

TEST_F(MemTest, RawArcOnReadOfModified)
{
    // Core 0 (thread 0) writes; core 1 (thread 1) reads -> RAW arc.
    mem.access(0, 0x5000, 8, true, tag(0, 42), true);
    AccessResult r = mem.access(1, 0x5000, 8, false, tag(1, 7), true);
    ASSERT_EQ(r.arcs.size(), 1u);
    EXPECT_EQ(r.arcs[0].tid, 0u);
    EXPECT_EQ(r.arcs[0].rid, 42u);
}

TEST_F(MemTest, WarArcOnWriteInvalidatingReader)
{
    mem.access(0, 0x6000, 8, false, tag(0, 10), true); // reader
    AccessResult r = mem.access(1, 0x6000, 8, true, tag(1, 3), true);
    ASSERT_GE(r.arcs.size(), 1u);
    EXPECT_EQ(r.arcs[0].tid, 0u);
    EXPECT_EQ(r.arcs[0].rid, 10u);
    EXPECT_TRUE(r.arcs[0].fromRead);
}

TEST_F(MemTest, UpgradeCollectsArcsFromAllSharers)
{
    mem.access(0, 0x7000, 8, false, tag(0, 1), true);
    mem.access(1, 0x7000, 8, false, tag(1, 2), true);
    mem.access(2, 0x7000, 8, false, tag(2, 3), true);
    // Core 2 upgrades: arcs from threads 0 and 1 (not itself).
    AccessResult r = mem.access(2, 0x7000, 8, true, tag(2, 4), true);
    EXPECT_EQ(r.arcs.size(), 2u);
}

TEST_F(MemTest, NoArcWithinSameThread)
{
    mem.access(0, 0x8000, 8, true, tag(5, 1), true);
    AccessResult r = mem.access(0, 0x8000, 8, false, tag(5, 2), true);
    EXPECT_TRUE(r.arcs.empty());
}

TEST_F(MemTest, NoArcsWhenCaptureDisabled)
{
    mem.access(0, 0x9000, 8, true, tag(0, 1), true);
    AccessResult r = mem.access(1, 0x9000, 8, false, tag(1, 1), false);
    EXPECT_TRUE(r.arcs.empty());
}

TEST_F(MemTest, RawArcSurvivesL2Writeback)
{
    // Writer's line leaves its L1 by a conflict eviction (four more
    // lines into its set of the 4-way, 256-set L1); the directory
    // preserves the writer tag so a later reader is still ordered
    // after it.
    mem.access(0, 0xA000, 8, true, tag(0, 99), true);
    for (Addr k = 1; k <= 4; ++k)
        mem.access(0, 0xA000 + k * 0x4000, 8, false, tag(0, 99 + k), true);
    ASSERT_EQ(mem.l1State(0, 0xA000), LineState::kInvalid);
    AccessResult r = mem.access(1, 0xA000, 8, false, tag(1, 1), true);
    ASSERT_EQ(r.arcs.size(), 1u);
    EXPECT_EQ(r.arcs[0].tid, 0u);
    EXPECT_EQ(r.arcs[0].rid, 99u);
}

TEST_F(MemTest, KernelWriteInvalidatesWithoutArcs)
{
    mem.access(0, 0xB000, 8, true, tag(0, 5), true);
    mem.kernelWrite(0xB000, 8, 0x1234);
    EXPECT_EQ(mem.l1State(0, 0xB000), LineState::kInvalid);
    EXPECT_EQ(mem.memory().read(0xB000, 8), 0x1234u);
    // Reader after the kernel write: the OS activity left no tag, so
    // there is no arc — the gap ConflictAlert compensates for.
    AccessResult r = mem.access(1, 0xB000, 8, false, tag(1, 1), true);
    EXPECT_TRUE(r.arcs.empty());
}

TEST_F(MemTest, PerCoreTrackingUsesCurrentCounter)
{
    SimConfig cfg2 = smallConfig();
    cfg2.depTracking = DepTracking::kPerCore;
    MemorySystem m2(cfg2, 2);
    m2.bindThread(0, 0);
    m2.bindThread(1, 1);
    m2.access(0, 0x1000, 8, true, AccessTag{0, 10, 0}, true);
    m2.setCoreCounter(0, 500); // thread 0 has retired far past the write
    AccessResult r = m2.access(1, 0x1000, 8, false, AccessTag{1, 1, 0},
                               true);
    ASSERT_EQ(r.arcs.size(), 1u);
    // Limited reduction: conservative current counter (less one: the
    // producing access already retired), not the per-block rid.
    EXPECT_EQ(r.arcs[0].rid, 499u);
}

TEST_F(MemTest, TsoViolationProducesVersionRequest)
{
    SimConfig cfg2 = smallConfig();
    cfg2.memoryModel = MemoryModel::kTSO;
    MemorySystem m2(cfg2, 2);
    m2.bindThread(0, 0);
    m2.bindThread(1, 1);
    // Thread 0 reads at retire cycle 100; thread 1's store retired at
    // cycle 50 but drains later: non-SC R->W.
    m2.access(0, 0x1000, 8, false, AccessTag{0, 10, 100}, true);
    AccessResult r =
        m2.access(1, 0x1000, 8, true, AccessTag{1, 5, 50}, true);
    EXPECT_TRUE(r.arcs.empty());
    ASSERT_EQ(r.versionRequests.size(), 1u);
    EXPECT_EQ(r.versionRequests[0].readerTid, 0u);
    EXPECT_EQ(r.versionRequests[0].readerRid, 10u);
}

TEST_F(MemTest, ScOrderProducesWarArcNotVersion)
{
    SimConfig cfg2 = smallConfig();
    cfg2.memoryModel = MemoryModel::kTSO;
    MemorySystem m2(cfg2, 2);
    m2.bindThread(0, 0);
    m2.bindThread(1, 1);
    // Read retired *before* the store retired: plain WAR arc.
    m2.access(0, 0x1000, 8, false, AccessTag{0, 10, 30}, true);
    AccessResult r =
        m2.access(1, 0x1000, 8, true, AccessTag{1, 5, 50}, true);
    EXPECT_EQ(r.versionRequests.size(), 0u);
    ASSERT_EQ(r.arcs.size(), 1u);
    EXPECT_EQ(r.arcs[0].rid, 10u);
}

// Cache model basics.
TEST(Cache, LruEviction)
{
    CacheParams p{4 * 64, 64, 4, 1}; // one set, 4 ways
    Cache c(p, "t");
    Cache::Victim v;
    for (Addr a = 0; a < 4 * 64; a += 64)
        c.insert(a, LineState::kExclusive, &v);
    EXPECT_FALSE(v.valid);
    c.lookup(0); // make line 0 most recently used
    c.insert(4 * 64, LineState::kExclusive, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 64u); // line 1 was LRU
}

TEST(Cache, HitAndMissCounters)
{
    CacheParams p{64 * 1024, 64, 4, 2};
    Cache c(p, "t");
    EXPECT_EQ(c.lookup(0x100), nullptr);
    c.insert(0x100, LineState::kShared, nullptr);
    EXPECT_NE(c.lookup(0x100), nullptr);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
}

TEST(Cache, Invalidate)
{
    CacheParams p{64 * 1024, 64, 4, 2};
    Cache c(p, "t");
    c.insert(0x100, LineState::kModified, nullptr);
    c.invalidate(0x100);
    EXPECT_EQ(c.lookup(0x100), nullptr);
}

TEST(Cache, SameSetDifferentTags)
{
    CacheParams p{2 * 64, 64, 2, 1}; // 1 set, 2 ways
    Cache c(p, "t");
    c.insert(0x0, LineState::kExclusive, nullptr);
    c.insert(0x1000, LineState::kExclusive, nullptr);
    EXPECT_NE(c.probe(0x0), nullptr);
    EXPECT_NE(c.probe(0x1000), nullptr);
}

} // namespace
} // namespace paralog
