/**
 * @file
 * Unit tests for order enforcement: progress table, dependence arcs,
 * ConflictAlert barrier halves, version stalls, range table, the
 * batched delivery fast path (must match single-pop exactly), and the
 * single-pop step count a lifeguard step reports.
 */


#include <gtest/gtest.h>

#include "core/lifeguard_core.hpp"
#include "deliver/order_enforce.hpp"
#include "lifeguard/version_store.hpp"

namespace paralog {
namespace {

TEST(ProgressTable, PublishMonotonic)
{
    ProgressTable pt(2);
    pt.publish(0, 10);
    pt.publish(0, 5); // may not move backwards
    EXPECT_EQ(pt.done(0), 10u);
    pt.publish(0, 20);
    EXPECT_EQ(pt.done(0), 20u);
}

TEST(ProgressTable, ArcSatisfaction)
{
    ProgressTable pt(2);
    pt.publish(1, 10);
    EXPECT_TRUE(pt.satisfied(DepArc{1, 9}));
    EXPECT_FALSE(pt.satisfied(DepArc{1, 10}));
    EXPECT_FALSE(pt.satisfied(DepArc{1, 11}));
}

TEST(ProgressTable, FinishIsInfinite)
{
    ProgressTable pt(2);
    pt.finish(1);
    EXPECT_TRUE(pt.satisfied(DepArc{1, 1ULL << 60}));
}

TEST(RangeTable, DetectsOverlap)
{
    RangeTable rt;
    rt.insert(3, AddrRange{0x1000, 0x1100});
    EXPECT_TRUE(rt.races(0x1000, 8));
    EXPECT_TRUE(rt.races(0x10F8, 8));
    EXPECT_FALSE(rt.races(0x1100, 8));
    rt.remove(3);
    EXPECT_FALSE(rt.races(0x1000, 8));
}

TEST(RangeTable, OneEntryPerIssuer)
{
    RangeTable rt;
    rt.insert(1, AddrRange{0x1000, 0x1100});
    rt.insert(1, AddrRange{0x2000, 0x2100}); // replaces
    EXPECT_FALSE(rt.races(0x1000, 8));
    EXPECT_TRUE(rt.races(0x2000, 8));
}

class EnforceTest : public ::testing::Test
{
  protected:
    EnforceTest()
        : cfg(SimConfig::forAppThreads(2)), progress(2), ca(2),
          unit0(0, cfg, EventFilter{}), unit1(1, cfg, EventFilter{}),
          enf0(0, unit0, progress, ca,
               [this](const VersionTag &v) {
                   return versions.available(v);
               }),
          enf1(1, unit1, progress, ca, [this](const VersionTag &v) {
              return versions.available(v);
          })
    {
    }

    AppEvent
    load(ThreadId tid, RecordId rid, Addr addr = 0x100)
    {
        AppEvent ev;
        ev.record.type = EventType::kLoad;
        ev.record.tid = tid;
        ev.record.rid = rid;
        ev.record.addr = addr;
        ev.record.size = 8;
        return ev;
    }

    SimConfig cfg;
    ProgressTable progress;
    CaManager ca;
    VersionStore versions;
    CaptureUnit unit0;
    CaptureUnit unit1;
    OrderEnforcer enf0;
    OrderEnforcer enf1;
};

TEST_F(EnforceTest, EmptyStream)
{
    OrderEnforcer::Delivery d;
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kEmpty);
}

TEST_F(EnforceTest, DeliversWithoutArc)
{
    unit0.append(load(0, 0));
    OrderEnforcer::Delivery d;
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_EQ(d.rec.rid, 0u);
}

TEST_F(EnforceTest, ArcStallsUntilProgress)
{
    AppEvent ev = load(0, 0);
    ev.arcs.push_back(RawArc{1, 5, false});
    unit0.append(std::move(ev));
    OrderEnforcer::Delivery d;
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDepStall);
    progress.publish(1, 5); // done=5 means rid 5 NOT yet complete
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDepStall);
    progress.publish(1, 6);
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDelivered);
}

TEST_F(EnforceTest, VersionStallUntilProduced)
{
    AppEvent ev = load(0, 0);
    ev.record.consumesVersion = true;
    ev.record.setVersion(VersionTag{1, 7});
    unit0.append(std::move(ev));
    OrderEnforcer::Delivery d;
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kVersionStall);
    versions.produce(VersionTag{1, 7}, VersionStore::Versioned{1, 0x100, 8});
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDelivered);
}

TEST_F(EnforceTest, CaBarrierBothHalves)
{
    // Thread 0 issues a free at rid 10 with a CA broadcast.
    unit0.setRetired(10);
    AppEvent freeEv;
    freeEv.record.type = EventType::kFreeBegin;
    freeEv.record.tid = 0;
    freeEv.record.rid = 10;
    freeEv.record.setRange(AddrRange{0x1000, 0x1040});
    unit0.append(std::move(freeEv));

    unit1.setRetired(4); // thread 1 has retired 4 records
    unit1.append(load(1, 2));

    std::vector<CaptureUnit *> units{&unit0, &unit1};
    std::vector<bool> alive{true, true};
    ca.broadcast(0, 10, HighLevelKind::kFreeBegin,
                 AddrRange{0x1000, 0x1040}, units, alive);
    unit0.buffer().findByRid(10)->caSeq = 0;

    // Issuer half: thread 0's lifeguard may not process the free until
    // thread 1 consumed everything before its CA record (arrival = 4).
    OrderEnforcer::Delivery d;
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kCaStall);

    // Thread 1 processes its pre-CA record and the CA record itself.
    EXPECT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered); // the load
    progress.publish(1, 4);
    EXPECT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered); // CA record
    EXPECT_EQ(d.rec.type, EventType::kCaBegin);

    // Waiter half: thread 1 now stalls until the issuer processed the
    // free...
    EXPECT_EQ(enf1.tryDeliver(d), DeliverStatus::kCaStall);

    // ...which it now can, since thread 1 arrived.
    EXPECT_EQ(enf0.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_EQ(d.rec.type, EventType::kFreeBegin);
    progress.publish(0, 11);

    // And thread 1 resumes.
    unit1.append(load(1, 5));
    EXPECT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_EQ(ca.liveBroadcasts(), 0u); // broadcast retired
}

TEST_F(EnforceTest, SyscallCaMaintainsRangeTable)
{
    unit0.setRetired(1);
    std::vector<CaptureUnit *> units{&unit0, &unit1};
    std::vector<bool> alive{true, true};

    // Thread 0 issues a syscall-begin CA over [0x4000, 0x4040).
    ca.broadcast(0, 0, HighLevelKind::kSyscallBegin,
                 AddrRange{0x4000, 0x4040}, units, alive);
    progress.publish(0, 1); // issuer already processed the begin

    OrderEnforcer::Delivery d;
    ASSERT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_EQ(d.rec.type, EventType::kCaBegin);

    // A load racing the in-flight syscall range is flagged.
    unit1.append(load(1, 1, 0x4010));
    ASSERT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_TRUE(d.racesSyscall);

    // After CA-End the flag clears.
    ca.broadcast(0, 1, HighLevelKind::kSyscallEnd,
                 AddrRange{0x4000, 0x4040}, units, alive);
    progress.publish(0, 2);
    ASSERT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered); // CA-End
    unit1.append(load(1, 2, 0x4010));
    ASSERT_EQ(enf1.tryDeliver(d), DeliverStatus::kDelivered);
    EXPECT_FALSE(d.racesSyscall);
}

TEST_F(EnforceTest, CaSkipsDeadThreads)
{
    unit0.setRetired(5);
    std::vector<CaptureUnit *> units{&unit0, &unit1};
    std::vector<bool> alive{true, false}; // thread 1 exited
    ca.broadcast(0, 5, HighLevelKind::kFreeBegin, AddrRange{0, 64},
                 units, alive);
    const CaBroadcast *b = ca.find(0);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->arrivalRid[1], kInvalidRecord);
    EXPECT_TRUE(unit1.consumerEmpty()); // no CA record inserted
}

TEST_F(EnforceTest, BatchMatchesSinglePop)
{
    // Identical streams on both units: plain loads with a satisfied arc
    // in the middle and an unsatisfiable arc near the end.
    progress.publish(1, 3);
    progress.publish(0, 3);
    auto build = [this](CaptureUnit &unit, ThreadId tid,
                        ThreadId arc_tid) {
        for (RecordId r = 0; r < 12; ++r) {
            AppEvent ev = load(tid, r, 0x100 + 8 * r);
            if (r == 5)
                ev.arcs.push_back(RawArc{arc_tid, 2, false}); // satisfied
            if (r == 9)
                ev.arcs.push_back(RawArc{arc_tid, 50, false}); // stalls
            unit.append(std::move(ev));
        }
    };
    build(unit0, 0, 1);
    build(unit1, 1, 0);

    // Drain unit0 single-pop, unit1 via the batch fast path.
    std::vector<RecordId> single, batched;
    OrderEnforcer::Delivery d;
    while (enf0.tryDeliver(d) == DeliverStatus::kDelivered)
        single.push_back(d.rec.rid);

    OrderEnforcer::BatchItem item;
    bool continuation = false;
    while (enf1.tryDeliverBatch(item, continuation) ==
           DeliverStatus::kDelivered) {
        batched.push_back(item.rec->rid);
        enf1.commitDelivered();
        continuation = true;
    }

    EXPECT_EQ(single, batched);
    EXPECT_EQ(single.size(), 9u); // rids 0..8; rid 9 stalls on its arc
    // Identical delivery accounting and progress-publish inputs: the
    // value a lifeguard would publish is the unit's progress ceiling.
    EXPECT_EQ(enf0.stats.get("delivered"), enf1.stats.get("delivered"));
    EXPECT_EQ(unit0.progressCeiling(), unit1.progressCeiling());
    // The batch ended on the unsatisfied arc without accounting a
    // modelled stall; the authoritative (first, non-continuation) check
    // is the one that records it.
    EXPECT_EQ(enf1.stats.get("dep_stalls"), 0u);
    EXPECT_EQ(enf1.tryDeliverBatch(item, false), DeliverStatus::kDepStall);
    EXPECT_EQ(enf1.stats.get("dep_stalls"), 1u);
}

TEST_F(EnforceTest, LifeguardStepReturnsTheSinglePopStepsItStandsFor)
{
    // The serial scheduler counts a step as the single-pop steps it
    // replaces (the journal's lifeguard-step stamp): n for a batch of n
    // records, 1 for an empty or stalled step.
    LifeguardPtr lg = makeLifeguard(LifeguardKind::kAddrCheck, 2);
    LifeguardCore core(2, 0, cfg, unit0, progress, ca, *lg, nullptr,
                       versions, 1);
    const Cycle open = ~Cycle{0};
    EXPECT_EQ(core.step(0, open), 1u); // empty stream

    for (RecordId r = 0; r < 24; ++r) {
        AppEvent ev = load(0, r, 0x100 + 8 * r);
        if (r == 20)
            ev.arcs.push_back(RawArc{1, 50, false}); // stalls
        unit0.append(std::move(ev));
    }
    EXPECT_EQ(core.step(core.busyUntil, open), 16u); // the batch cap
    EXPECT_EQ(core.step(core.busyUntil, open), 4u);  // up to the arc
    EXPECT_EQ(core.stats.recordsProcessed, 20u);
    EXPECT_EQ(core.step(core.busyUntil, open), 1u); // dependence stall
    EXPECT_EQ(core.stats.recordsProcessed, 20u);

    progress.publish(1, 51);
    // A horizon at `now` disables batching: one record per step.
    EXPECT_EQ(core.step(core.busyUntil, core.busyUntil), 1u);
    EXPECT_EQ(core.stats.recordsProcessed, 21u);
    EXPECT_EQ(core.step(core.busyUntil, open), 3u);
    EXPECT_EQ(core.stats.recordsProcessed, 24u);
}

TEST(VersionStoreTest, ProduceConsume)
{
    VersionStore vs;
    VersionTag v{2, 42};
    EXPECT_FALSE(vs.available(v));
    vs.produce(v, VersionStore::Versioned{0x3, 0x100, 8});
    EXPECT_TRUE(vs.available(v));
    auto data = vs.consume(v);
    EXPECT_EQ(data.bits, 0x3u);
    EXPECT_FALSE(vs.available(v)); // consumed once
    EXPECT_EQ(vs.size(), 0u);
}

} // namespace
} // namespace paralog
