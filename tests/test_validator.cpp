/**
 * @file
 * Tests for the happens-before completeness validator: hand-built
 * traces with known orderings, plus whole-run validation of real
 * workload captures (the soundness property of the paper's order
 * capture on this substrate).
 */

#include <gtest/gtest.h>

#include "capture/validator.hpp"
#include "common/logging.hpp"
#include "core/experiment.hpp"

namespace paralog {
namespace {

TracedRecord
access(std::uint64_t seq, ThreadId tid, RecordId rid, EventType type,
       Addr addr)
{
    TracedRecord tr;
    tr.globalSeq = seq;
    tr.rec.type = type;
    tr.rec.tid = tid;
    tr.rec.rid = rid;
    tr.rec.addr = addr;
    tr.rec.size = 8;
    tr.isWrite = (type == EventType::kStore);
    return tr;
}

TEST(Validator, OrderedPairAccepted)
{
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 0, 0, EventType::kStore, 0x1000));
    TracedRecord rd = access(1, 1, 0, EventType::kLoad, 0x1000);
    rd.rec.mutableArcs().push_back(DepArc{0, 0}); // RAW arc recorded
    trace.push_back(rd);

    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.conflictingPairs, 1u);
    EXPECT_EQ(result.orderedByArcs, 1u);
}

TEST(Validator, MissingArcDetected)
{
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 0, 0, EventType::kStore, 0x1000));
    trace.push_back(access(1, 1, 0, EventType::kLoad, 0x1000)); // no arc

    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.violations.size(), 1u);
    EXPECT_NE(result.violations[0].find("RAW"), std::string::npos);
}

TEST(Validator, TransitiveOrderingAccepted)
{
    // T0 writes A; T1 reads A (arc) then writes B; T2 reads B (arc to
    // T1 only) then reads A: ordered transitively through T1.
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 0, 0, EventType::kStore, 0x1000)); // A
    TracedRecord r1 = access(1, 1, 0, EventType::kLoad, 0x1000);
    r1.rec.mutableArcs().push_back(DepArc{0, 0});
    trace.push_back(r1);
    trace.push_back(access(2, 1, 1, EventType::kStore, 0x2000)); // B
    TracedRecord r2 = access(3, 2, 0, EventType::kLoad, 0x2000);
    r2.rec.mutableArcs().push_back(DepArc{1, 1});
    trace.push_back(r2);
    trace.push_back(access(4, 2, 1, EventType::kLoad, 0x1000)); // A again

    HappensBeforeValidator v(3);
    auto result = v.validate(trace);
    EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                     ? ""
                                     : result.violations[0]);
}

TEST(Validator, SameThreadNeverConflicts)
{
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 0, 0, EventType::kStore, 0x1000));
    trace.push_back(access(1, 0, 1, EventType::kLoad, 0x1000));
    trace.push_back(access(2, 0, 2, EventType::kStore, 0x1000));
    HappensBeforeValidator v(2);
    EXPECT_TRUE(v.validate(trace).ok());
}

TEST(Validator, ConcurrentReadsAllowed)
{
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 0, 0, EventType::kLoad, 0x1000));
    trace.push_back(access(1, 1, 0, EventType::kLoad, 0x1000));
    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.conflictingPairs, 0u);
}

TEST(Validator, ConflictAlertOrdersLogicalRace)
{
    // T0 frees a range with a CA broadcast; T1's later access to the
    // range is ordered by the alert even though no arc exists.
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 1, 0, EventType::kLoad, 0x5000));

    TracedRecord freeRec;
    freeRec.globalSeq = 1;
    freeRec.rec.type = EventType::kFreeBegin;
    freeRec.rec.tid = 0;
    freeRec.rec.rid = 0;
    freeRec.rec.setRange(AddrRange{0x5000, 0x5100});
    freeRec.rec.caSeq = 7;
    trace.push_back(freeRec);

    TracedRecord ca;
    ca.globalSeq = 2;
    ca.rec.type = EventType::kCaBegin;
    ca.rec.tid = 1;
    ca.rec.rid = 1;
    ca.rec.value = 7;
    ca.rec.caKind = HighLevelKind::kFreeBegin;
    ca.rec.setRange(AddrRange{0x5000, 0x5100});
    trace.push_back(ca);

    // T1's access after its CA record: ordered after the free.
    trace.push_back(access(3, 1, 2, EventType::kStore, 0x5000));

    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                     ? ""
                                     : result.violations[0]);
    EXPECT_GT(result.orderedByAlerts, 0u);
}

TEST(Validator, FreeWithoutAlertFlagged)
{
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 1, 0, EventType::kStore, 0x5000));

    TracedRecord freeRec;
    freeRec.globalSeq = 1;
    freeRec.rec.type = EventType::kFreeBegin;
    freeRec.rec.tid = 0;
    freeRec.rec.rid = 0;
    freeRec.rec.setRange(AddrRange{0x5000, 0x5100});
    trace.push_back(freeRec); // no CA, no arc: logical race

    HappensBeforeValidator v(2);
    EXPECT_FALSE(v.validate(trace).ok());
}

TEST(Validator, SyscallRangeDirectionFollowsTheSharedClassifier)
{
    // A write()-style syscall reads the output buffer; its range must
    // not be treated as a kernel write. T1 wrote the buffer earlier
    // with no ordering to T0's SyscallEnd — a write classification
    // would flag a WAW race that does not exist; a read classification
    // needs the RAW pair ordered, which the arc provides.
    std::vector<TracedRecord> trace;
    trace.push_back(access(0, 1, 0, EventType::kStore, 0x5000));

    TracedRecord sys;
    sys.globalSeq = 1;
    sys.rec.type = EventType::kSyscallEnd;
    sys.rec.tid = 0;
    sys.rec.rid = 0;
    sys.rec.syscall = SyscallKind::kWrite;
    sys.rec.setRange(AddrRange{0x5000, 0x5040});
    sys.rec.mutableArcs().push_back(DepArc{1, 0});
    sys.isWrite = traceIsWrite(sys.rec);
    EXPECT_FALSE(sys.isWrite);
    trace.push_back(sys);

    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                     ? ""
                                     : result.violations[0]);

    // The same trace with a read()-style syscall is a kernel fill: a
    // write over the range, still ordered by the arc.
    trace[1].rec.syscall = SyscallKind::kRead;
    trace[1].isWrite = traceIsWrite(trace[1].rec);
    EXPECT_TRUE(trace[1].isWrite);
    EXPECT_TRUE(v.validate(trace).ok());
}

TEST(Validator, BarrierPhaseConventionMatchesTheInterpreter)
{
    // Derive the arrival/exit convention from a real capture: lu
    // passes phase barriers, so the trace must contain both phases —
    // arrivals (value 0, the RMW store) classified as writes and exits
    // (value 1, the release-observing read) as reads. If the
    // interpreter's encoding ever flips, this fails before the
    // classifier silently inverts the happens-before check.
    setQuiet(true);
    ExperimentOptions o;
    o.scale = 800;
    PlatformConfig cfg = makeConfig(WorkloadKind::kLu,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, o);
    cfg.traceCapture = true;
    Platform p(cfg);
    p.run();

    std::size_t arrivals = 0, exits = 0;
    for (const TracedRecord &tr : p.trace().records()) {
        if (tr.rec.type != EventType::kBarrierPass)
            continue;
        ASSERT_LE(tr.rec.value, 1u);
        if (tr.rec.value == 0) {
            ++arrivals;
            EXPECT_TRUE(tr.isWrite);
        } else {
            ++exits;
            EXPECT_FALSE(tr.isWrite);
        }
    }
    EXPECT_GT(arrivals, 0u);
    EXPECT_GT(exits, 0u);
    EXPECT_EQ(arrivals, exits); // every arrival has its exit
}

// ---------- whole-run validation of real captures ----------

class WholeRunValidation
    : public ::testing::TestWithParam<WorkloadKind>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }
};

TEST_P(WholeRunValidation, CapturedArcsAreComplete)
{
    ExperimentOptions o;
    o.scale = 5000;
    PlatformConfig cfg = makeConfig(GetParam(),
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 4, o);
    cfg.traceCapture = true;
    Platform p(cfg);
    p.run();

    HappensBeforeValidator v(4, cfg.sim.l1d.lineBytes);
    auto result = v.validate(p.trace().records());
    EXPECT_TRUE(result.ok())
        << toString(GetParam()) << ": " << result.violations.size()
        << " unordered conflicting pairs, first: "
        << (result.violations.empty() ? "" : result.violations[0]);
    EXPECT_GT(result.conflictingPairs, 0u)
        << "workload produced no conflicts: test is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WholeRunValidation,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        std::string name = toString(info.param);
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace paralog
