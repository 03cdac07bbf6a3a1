/** @file Unit tests for event capture: log buffer, reduction, filters. */

#include <gtest/gtest.h>

#include "capture/capture_unit.hpp"

namespace paralog {
namespace {

EventRecord
rec(EventType type, RecordId rid, Addr addr = 0)
{
    EventRecord r;
    r.type = type;
    r.rid = rid;
    r.addr = addr;
    r.size = 8;
    return r;
}

TEST(LogBuffer, FifoOrder)
{
    LogBuffer buf(1024);
    buf.append(rec(EventType::kLoad, 0));
    buf.append(rec(EventType::kStore, 1));
    EXPECT_EQ(buf.pop().rid, 0u);
    EXPECT_EQ(buf.pop().rid, 1u);
    EXPECT_TRUE(buf.empty());
}

TEST(LogBuffer, ByteAccountingAndFull)
{
    LogBuffer buf(4); // tiny: 4 bytes
    EXPECT_FALSE(buf.full());
    buf.append(rec(EventType::kLoad, 0));  // 1 byte
    buf.append(rec(EventType::kLoad, 1));
    buf.append(rec(EventType::kLoad, 2));
    EXPECT_FALSE(buf.full());
    buf.append(rec(EventType::kLoad, 3));
    EXPECT_TRUE(buf.full());
    buf.pop();
    EXPECT_FALSE(buf.full());
}

TEST(LogBuffer, CompressedSizesByType)
{
    EXPECT_EQ(rec(EventType::kLoad, 0).compressedBytes(), 1u);
    EXPECT_EQ(rec(EventType::kMallocEnd, 0).compressedBytes(), 8u);
    EventRecord r = rec(EventType::kLoad, 0);
    r.mutableArcs().push_back(DepArc{1, 5});
    EXPECT_EQ(r.compressedBytes(), 5u); // 1 + 4 per arc
}

TEST(LogBuffer, VisibilityLimitHidesRecords)
{
    LogBuffer buf(1024);
    buf.append(rec(EventType::kLoad, 5));
    EXPECT_EQ(buf.peek(5), nullptr);    // rid 5 >= limit 5: hidden
    EXPECT_NE(buf.peek(6), nullptr);    // limit 6: visible
    EXPECT_NE(buf.peek(), nullptr);     // unlimited
}

TEST(LogBuffer, FindByRid)
{
    LogBuffer buf(1024);
    buf.append(rec(EventType::kLoad, 2));
    buf.append(rec(EventType::kStore, 7));
    EXPECT_EQ(buf.findByRid(2)->type, EventType::kLoad);
    EXPECT_EQ(buf.findByRid(7)->type, EventType::kStore);
    EXPECT_EQ(buf.findByRid(5), nullptr);
}

TEST(LogBuffer, FindByRidPreferMemAccessSkipsSameRidCaRecord)
{
    // CA records reuse the retire counter, so a CA record may share
    // the racing load's rid and precede it; the consume-version
    // annotation must land on the load.
    LogBuffer buf(1024);
    buf.append(rec(EventType::kCaBegin, 5));
    buf.append(rec(EventType::kLoad, 5));
    ASSERT_NE(buf.findByRidPreferMemAccess(5), nullptr);
    EXPECT_EQ(buf.findByRidPreferMemAccess(5)->type, EventType::kLoad);
    // With no mem access sharing the rid, any same-rid record is
    // returned (the lifeguard core's discard path handles it).
    LogBuffer buf2(1024);
    buf2.append(rec(EventType::kBarrierPass, 7));
    ASSERT_NE(buf2.findByRidPreferMemAccess(7), nullptr);
    EXPECT_EQ(buf2.findByRidPreferMemAccess(7)->type,
              EventType::kBarrierPass);
    EXPECT_EQ(buf2.findByRidPreferMemAccess(8), nullptr);
}

TEST(LogBuffer, InsertBefore)
{
    LogBuffer buf(1024);
    buf.append(rec(EventType::kLoad, 2));
    buf.append(rec(EventType::kStore, 7));
    buf.insertBefore(7, rec(EventType::kProduceVersion, 6));
    EXPECT_EQ(buf.pop().rid, 2u);
    EXPECT_EQ(buf.pop().type, EventType::kProduceVersion);
    EXPECT_EQ(buf.pop().rid, 7u);
}

// ---- EventRecord value semantics (hot line + out-of-line cold block) ----

/** A load carrying every cold field: range, version and one arc. */
EventRecord
coldRec()
{
    EventRecord r = rec(EventType::kLoad, 4, 0x40);
    r.setRange(AddrRange{0x1000, 0x1040});
    r.setVersion(VersionTag{1, 9});
    r.mutableArcs().push_back(DepArc{1, 3});
    return r;
}

TEST(EventRecord, CopyDeepCopiesTheColdBlock)
{
    EventRecord a = coldRec();
    EventRecord b = a;
    b.mutableArcs().push_back(DepArc{2, 8});
    b.setRange(AddrRange{0x2000, 0x2010});
    b.setVersion(VersionTag{3, 1});
    EXPECT_EQ(a.arcs(), (std::vector<DepArc>{DepArc{1, 3}}));
    EXPECT_EQ(a.range(), (AddrRange{0x1000, 0x1040}));
    EXPECT_EQ(a.version(), (VersionTag{1, 9}));

    // Copy-assignment over a record that already owns a block.
    EventRecord c = coldRec();
    c.mutableArcs().clear();
    c = b;
    EXPECT_EQ(c.arcs().size(), 2u);
    EXPECT_EQ(c.range(), b.range());
    c.mutableArcs().clear();
    EXPECT_EQ(b.arcs().size(), 2u);
}

TEST(EventRecord, WithoutColdDataOwnsNoBlock)
{
    EventRecord plain = rec(EventType::kLoad, 1, 0x80);
    EXPECT_FALSE(plain.hasColdBlock());
    // Setting a cold field to its default value allocates nothing.
    plain.setRange(AddrRange{});
    plain.setVersion(VersionTag{});
    plain.setArcs({});
    EXPECT_TRUE(plain.takeArcs().empty());
    EXPECT_FALSE(plain.hasColdBlock());

    EventRecord copy = plain;
    EXPECT_FALSE(copy.hasColdBlock());
    EventRecord moved = std::move(copy);
    EXPECT_FALSE(moved.hasColdBlock());
    moved.reset();
    EXPECT_FALSE(moved.hasColdBlock());

    // Assigning a plain record drops the target's block.
    EventRecord target = coldRec();
    target = plain;
    EXPECT_FALSE(target.hasColdBlock());
    EXPECT_TRUE(target.arcs().empty());
    EventRecord target2 = coldRec();
    target2 = EventRecord(plain);
    EXPECT_FALSE(target2.hasColdBlock());

    // A move hands the block over.
    EventRecord from = coldRec();
    EventRecord to = std::move(from);
    EXPECT_TRUE(to.hasColdBlock());
    EXPECT_EQ(to.arcs().size(), 1u);
}

TEST(EventRecord, ResetClearsEveryField)
{
    EventRecord r = coldRec();
    r.caSeq = 5;
    r.chargedBytes = 9;
    r.appendCycle = 77;
    r.consumesVersion = true;
    r.reset();
    EXPECT_EQ(r.range(), AddrRange{});
    EXPECT_EQ(r.version(), VersionTag{});
    EXPECT_TRUE(r.arcs().empty());
    EXPECT_FALSE(r.hasColdBlock());
    EXPECT_EQ(r.type, EventType::kNone);
    EXPECT_EQ(r.rid, kInvalidRecord);
    EXPECT_EQ(r.tid, kInvalidThread);
    EXPECT_EQ(r.addr, 0u);
    EXPECT_EQ(r.caSeq, kNoCaSeq);
    EXPECT_EQ(r.chargedBytes, 0u);
    EXPECT_EQ(r.appendCycle, 0u);
    EXPECT_FALSE(r.consumesVersion);
}

TEST(ArcReducer, DropsDominatedArcs)
{
    ArcReducer red;
    EXPECT_TRUE(red.shouldRecord(RawArc{1, 10, false}));
    EXPECT_FALSE(red.shouldRecord(RawArc{1, 10, false})); // duplicate
    EXPECT_FALSE(red.shouldRecord(RawArc{1, 5, false}));  // dominated
    EXPECT_TRUE(red.shouldRecord(RawArc{1, 11, false}));  // new info
    EXPECT_TRUE(red.shouldRecord(RawArc{2, 1, false}));   // other thread
    EXPECT_EQ(red.kept, 3u);
    EXPECT_EQ(red.dropped, 2u);
}

class CaptureUnitTest : public ::testing::Test
{
  protected:
    CaptureUnitTest() : cfg(SimConfig::forAppThreads(2)) {}

    AppEvent
    appEvent(EventType type, RecordId rid, Addr addr = 0)
    {
        AppEvent ev;
        ev.record = rec(type, rid, addr);
        ev.record.tid = 0;
        return ev;
    }

    SimConfig cfg;
};

TEST_F(CaptureUnitTest, AppendsWantedRecords)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    EXPECT_TRUE(cu.append(appEvent(EventType::kLoad, 0)));
    EXPECT_FALSE(cu.consumerEmpty());
    EXPECT_EQ(cu.pop().type, EventType::kLoad);
}

TEST_F(CaptureUnitTest, FilterDropsRegOps)
{
    EventFilter f;
    f.regOps = false;
    CaptureUnit cu(0, cfg, f);
    EXPECT_FALSE(cu.append(appEvent(EventType::kMovRR, 0)));
    EXPECT_TRUE(cu.append(appEvent(EventType::kLoad, 1)));
}

TEST_F(CaptureUnitTest, HeapOnlyFilter)
{
    EventFilter f;
    f.heapOnly = true;
    f.heapArena = AddrRange{0x1000, 0x2000};
    CaptureUnit cu(0, cfg, f);
    EXPECT_TRUE(cu.append(appEvent(EventType::kLoad, 0, 0x1800)));
    EXPECT_FALSE(cu.append(appEvent(EventType::kLoad, 1, 0x3000)));
    // High-level events always pass.
    EXPECT_TRUE(cu.append(appEvent(EventType::kMallocEnd, 2)));
}

TEST_F(CaptureUnitTest, ArcReductionAppliedOnAppend)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    AppEvent ev = appEvent(EventType::kLoad, 0);
    ev.arcs.push_back(RawArc{1, 10, false});
    ev.arcs.push_back(RawArc{1, 8, false}); // dominated by the first
    cu.append(std::move(ev));
    EventRecord r = cu.pop();
    ASSERT_EQ(r.arcs().size(), 1u);
    EXPECT_EQ(r.arcs()[0].rid, 10u);
}

TEST_F(CaptureUnitTest, ArcsOnFilteredRecordCarryForward)
{
    EventFilter f;
    f.regOps = true;
    f.loads = false; // loads filtered out
    CaptureUnit cu(0, cfg, f);
    AppEvent load = appEvent(EventType::kLoad, 0);
    load.arcs.push_back(RawArc{1, 42, false});
    EXPECT_FALSE(cu.append(std::move(load))); // filtered, arc pending
    EXPECT_TRUE(cu.append(appEvent(EventType::kMovRR, 1)));
    EventRecord r = cu.pop();
    // The ordering survived on the next captured record.
    ASSERT_EQ(r.arcs().size(), 1u);
    EXPECT_EQ(r.arcs()[0].tid, 1u);
    EXPECT_EQ(r.arcs()[0].rid, 42u);
}

TEST_F(CaptureUnitTest, ProgressCeilingTracksStream)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.setRetired(10);
    // Empty stream: everything retired is complete once consumed.
    EXPECT_EQ(cu.progressCeiling(), 10u);
    cu.append(appEvent(EventType::kLoad, 4));
    // A pending record at rid 4 caps the ceiling.
    EXPECT_EQ(cu.progressCeiling(), 4u);
    cu.pop();
    EXPECT_EQ(cu.progressCeiling(), 10u);
}

TEST_F(CaptureUnitTest, VisibilityLimitCapsCeiling)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.setRetired(20);
    cu.setVisibilityLimit(15);
    EXPECT_EQ(cu.progressCeiling(), 15u);
}

TEST_F(CaptureUnitTest, ConsumeAnnotation)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.append(appEvent(EventType::kLoad, 3, 0x100));
    VersionTag v{1, 99};
    EXPECT_TRUE(cu.annotateConsume(3, v));
    const EventRecord *r = cu.peek();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->consumesVersion);
    EXPECT_EQ(r->version(), v);
    // Annotating a consumed record reports failure (benign).
    cu.pop();
    EXPECT_FALSE(cu.annotateConsume(3, v));
}

TEST_F(CaptureUnitTest, AppendOfPlainRecordAllocatesNoColdBlock)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    EXPECT_TRUE(cu.append(appEvent(EventType::kLoad, 0, 0x100)));
    ASSERT_NE(cu.peek(), nullptr);
    EXPECT_FALSE(cu.peek()->hasColdBlock());
}

TEST_F(CaptureUnitTest, AnnotationsReachABufferedRecordWithoutColdBlock)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.append(appEvent(EventType::kLoad, 3, 0x100));
    cu.append(appEvent(EventType::kLoad, 4, 0x108));
    ASSERT_FALSE(cu.buffer().findByRid(3)->hasColdBlock());
    ASSERT_FALSE(cu.buffer().findByRid(4)->hasColdBlock());

    EXPECT_TRUE(cu.annotateConsume(3, VersionTag{1, 99}));
    cu.attachArcs(4, {RawArc{1, 7, false}});

    EventRecord first = cu.pop();
    EXPECT_TRUE(first.consumesVersion);
    EXPECT_EQ(first.version(), (VersionTag{1, 99}));
    EXPECT_TRUE(first.arcs().empty());
    EventRecord second = cu.pop();
    EXPECT_EQ(second.arcs(), (std::vector<DepArc>{DepArc{1, 7}}));
    EXPECT_EQ(second.version(), VersionTag{});
}

TEST_F(CaptureUnitTest, DuplicateConsumeAnnotationReportsFalse)
{
    // A line-crossing conflict raises one version request per cache
    // line with the identical tag; the second annotation must not
    // trigger a second produce record.
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.append(appEvent(EventType::kLoad, 3, 0x100));
    VersionTag v{1, 99};
    EXPECT_TRUE(cu.annotateConsume(3, v));
    EXPECT_FALSE(cu.annotateConsume(3, v));
    EXPECT_EQ(cu.stats.get("consume_versions"), 1u);
}

TEST_F(CaptureUnitTest, ProduceInsertion)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.append(appEvent(EventType::kStore, 5, 0x100));
    cu.insertProduceBefore(5, VersionTag{2, 7}, 0x100, 8);
    EXPECT_EQ(cu.pop().type, EventType::kProduceVersion);
    EXPECT_EQ(cu.pop().type, EventType::kStore);
}

TEST_F(CaptureUnitTest, ProduceInsertionMovesStoreArcsAndStampsStoreRid)
{
    CaptureUnit cu(0, cfg, EventFilter{});
    AppEvent store = appEvent(EventType::kStore, 5, 0x100);
    store.arcs.push_back(RawArc{1, 42, false});
    cu.append(std::move(store));
    cu.insertProduceBefore(5, VersionTag{2, 7}, 0x100, 8);
    EXPECT_TRUE(cu.buffer().findStoreByRid(5)->arcs().empty());

    // The snapshot must wait for every remote handler the store itself
    // is ordered after: the produce record inherits the drain-time
    // arcs, and carries the store's rid for writerDone tracking.
    EventRecord produce = cu.pop();
    ASSERT_EQ(produce.type, EventType::kProduceVersion);
    EXPECT_EQ(produce.rid, 5u);
    EXPECT_EQ(produce.value, 5u);
    ASSERT_EQ(produce.arcs().size(), 1u);
    EXPECT_EQ(produce.arcs()[0], (DepArc{1, 42}));
    EXPECT_TRUE(cu.pop().arcs().empty());
}

TEST_F(CaptureUnitTest, ProduceInsertionAfterSameRidCaRecordStaysSorted)
{
    // CA records reuse the retire counter as their rid, so a CA record
    // with the store's own rid can sit just in front of it. The
    // produce insert lands between them and must keep the stream
    // rid-sorted (it shares the store's rid): a smaller rid there
    // corrupts every lower_bound-based lookup that follows.
    CaptureUnit cu(0, cfg, EventFilter{});
    cu.append(appEvent(EventType::kLoad, 8, 0x100));
    cu.setRetired(10);
    EventRecord ca;
    ca.type = EventType::kCaBegin;
    ca.value = 0;
    cu.appendCa(std::move(ca)); // rid 10, same as the upcoming store
    cu.append(appEvent(EventType::kStore, 10, 0x200));

    cu.insertProduceBefore(10, VersionTag{1, 33}, 0x200, 8);
    // The pending store must still be findable (a second version
    // request for the same store depends on it) ...
    ASSERT_NE(cu.buffer().findStoreByRid(10), nullptr);
    cu.insertProduceBefore(10, VersionTag{2, 44}, 0x200, 8);

    // ... and delivery order is load, CA, both produces, store.
    EXPECT_EQ(cu.pop().type, EventType::kLoad);
    EXPECT_EQ(cu.pop().type, EventType::kCaBegin);
    EXPECT_EQ(cu.pop().type, EventType::kProduceVersion);
    EXPECT_EQ(cu.pop().type, EventType::kProduceVersion);
    EXPECT_EQ(cu.pop().type, EventType::kStore);
    EXPECT_TRUE(cu.consumerEmpty());
}

// ------------------------- trace write classification (validator) ---

/**
 * The full classification table of traceIsWrite, audited against the
 * interpreter's data-path operations: stores and lock RMWs write;
 * barrier *arrival* (value 0) RMWs the barrier word while the *exit*
 * phase (value 1) only reads it; malloc/free and read()-style syscalls
 * write their range, write()-style syscalls only read the output
 * buffer. This is the single table the happens-before validator
 * consumes — TraceSink and the validator cannot disagree.
 */
TEST(TraceClassification, IsWriteTable)
{
    auto classify = [](EventType type, std::uint64_t value = 0,
                       SyscallKind sys = SyscallKind::kNone) {
        EventRecord r;
        r.type = type;
        r.value = value;
        r.syscall = sys;
        return traceIsWrite(r);
    };

    // Store-like.
    EXPECT_TRUE(classify(EventType::kStore));
    EXPECT_TRUE(classify(EventType::kLockAcquire));
    EXPECT_TRUE(classify(EventType::kLockRelease));
    EXPECT_TRUE(classify(EventType::kMallocEnd));
    EXPECT_TRUE(classify(EventType::kFreeBegin));
    // Barrier: arrival (value 0) is the RMW; exit (value 1) reads.
    EXPECT_TRUE(classify(EventType::kBarrierPass, 0));
    EXPECT_FALSE(classify(EventType::kBarrierPass, 1));
    // Syscalls: the kernel writes the buffer of a read(), reads the
    // buffer of a write().
    EXPECT_TRUE(classify(EventType::kSyscallEnd, 0, SyscallKind::kRead));
    EXPECT_FALSE(
        classify(EventType::kSyscallEnd, 0, SyscallKind::kWrite));
    EXPECT_FALSE(classify(EventType::kSyscallBegin, 0,
                          SyscallKind::kRead));
    // Read-like / bookkeeping.
    EXPECT_FALSE(classify(EventType::kLoad));
    EXPECT_FALSE(classify(EventType::kMovRR));
    EXPECT_FALSE(classify(EventType::kMovImm));
    EXPECT_FALSE(classify(EventType::kAlu));
    EXPECT_FALSE(classify(EventType::kJump));
    EXPECT_FALSE(classify(EventType::kCaBegin));
    EXPECT_FALSE(classify(EventType::kCaEnd));
    EXPECT_FALSE(classify(EventType::kThreadDone));
    EXPECT_FALSE(classify(EventType::kProduceVersion));
}

TEST(TraceClassification, SinkAppliesTheSharedTable)
{
    TraceSink sink;
    EventRecord arrival;
    arrival.type = EventType::kBarrierPass;
    arrival.value = 0;
    sink.append(arrival);
    EventRecord exit_rec;
    exit_rec.type = EventType::kBarrierPass;
    exit_rec.value = 1;
    sink.append(exit_rec);

    ASSERT_EQ(sink.size(), 2u);
    EXPECT_TRUE(sink.records()[0].isWrite);
    EXPECT_FALSE(sink.records()[1].isWrite);
    EXPECT_EQ(sink.records()[0].globalSeq, 0u);
    EXPECT_EQ(sink.records()[1].globalSeq, 1u);
}

} // namespace
} // namespace paralog
