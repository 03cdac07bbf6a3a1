/**
 * @file
 * Recordings whose journal is tampered with at record time while the
 * live run, the footer and every chunk CRC stay valid: the inputs the
 * replay watchdog and the journal reader must turn into fast, named
 * failures (offline and inside paralogd).
 */

#ifndef PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP
#define PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP

#include <string>

#include <gtest/gtest.h>

#include "harness/paralog_test.hpp"
#include "trace/recorder.hpp"

namespace paralog::test {

/**
 * Record lu/TaintCheck/2 cores/scale 300 under @p mm to @p path through
 * a @p Recorder (a trace::TraceRecorder subclass), the way
 * recordExperiment records it.
 */
template <typename Recorder>
void
recordLuJournal(const std::string &path, MemoryModel mm)
{
    ExperimentOptions o = makeOptions(300);
    o.memoryModel = mm;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                   MonitorMode::kParallel, 2, o);
    cfg.sim.deliverBatchMax = 1; // canonical single-pop, as recorded

    trace::TraceConfig tc;
    tc.workload = WorkloadKind::kLu;
    tc.lifeguard = LifeguardKind::kTaintCheck;
    tc.memoryModel = mm;
    tc.depTracking = cfg.sim.depTracking;
    tc.appThreads = 2;
    tc.shadowShards = cfg.sim.shadowShards;
    tc.scale = 300;
    tc.seed = cfg.sim.seed;
    tc.logBufferBytes = cfg.sim.logBufferBytes;

    Recorder recorder(path, tc);
    ASSERT_TRUE(recorder.ok()) << recorder.error();
    cfg.recorder = &recorder;
    Platform p(cfg);
    RunResult result = p.run();
    result.shadowFingerprint =
        heapGlobalsFingerprint(p.lifeguard().shadow());
    ASSERT_TRUE(recorder.finalize(result, result.shadowFingerprint))
        << recorder.error();
}

/** Records normally, except that the journal's first retire op is
 *  stamped 2^40 cycles in, far past the end of the run (ops after it
 *  return to their true cycles). */
class FutureStampRecorder : public trace::TraceRecorder
{
  public:
    using TraceRecorder::TraceRecorder;

    void
    onRetire(ThreadId tid, RecordId retired) override
    {
        if (!stamped_) {
            stamped_ = true;
            setNow(Cycle{1} << 40);
        }
        TraceRecorder::onRetire(tid, retired);
    }

  private:
    bool stamped_ = false;
};

} // namespace paralog::test

#endif // PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP
