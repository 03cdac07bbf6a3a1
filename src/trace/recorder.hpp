/**
 * @file
 * TraceRecorder: the live half of record/replay. Attached to a
 * Platform run (PlatformConfig::recorder), it implements the capture
 * journal — stamping every producer-side stream mutation with its
 * simulated cycle and the global count of single-pop lifeguard steps
 * (a batched step of n records counts n), and writing its
 * fields straight into the TraceWriter's per-thread v2 columns
 * (OpColumns, v2_block.hpp), from which a chunk flush produces either
 * container's payload — and additionally captures the platform-level
 * ConflictAlert broadcast bookkeeping plus the per-lifeguard-core
 * metadata-access latency sideband (the one consumer-side quantity
 * that depends on application cache interference, which replay has no
 * application cores to regenerate).
 */

#ifndef PARALOG_TRACE_RECORDER_HPP
#define PARALOG_TRACE_RECORDER_HPP

#include <memory>
#include <string>
#include <vector>

#include "capture/journal.hpp"
#include "deliver/ca_manager.hpp"
#include "trace/codec.hpp"
#include "trace/trace_writer.hpp"

namespace paralog::trace {

class TraceRecorder : public CaptureJournal
{
  public:
    /** @p format selects the container: kFormatVersion (v1, default)
     *  or kFormatVersionV2. The journal ops are identical; only the
     *  on-disk ops-chunk layout differs. */
    TraceRecorder(const std::string &path, const TraceConfig &cfg,
                  std::uint32_t format = kFormatVersion);

    bool ok() const { return writer_.ok(); }
    const std::string &error() const { return writer_.error(); }

    /** Patch the event-filter bits the platform derives from the
     *  lifeguard policy (known only after construction). */
    void setFilterBits(std::uint8_t bits)
    {
        writer_.config().filterBits = bits;
    }

    // ---- phase bookkeeping (driven by the Platform scheduler loop) ----
    void setNow(Cycle now) { now_ = now; }
    /** @p n single-pop lifeguard steps just ran (LifeguardCore::step). */
    void noteLgStep(std::uint32_t n) { lgSteps_ += n; }

    // ---- CaptureJournal ----
    void onRetire(ThreadId tid, RecordId retired) override;
    void onAppend(ThreadId tid, const EventRecord &rec,
                  std::uint32_t charged_bytes,
                  const std::vector<std::uint8_t> &payload) override;
    void onAppendCa(ThreadId tid, const EventRecord &rec,
                    std::uint32_t charged_bytes,
                    const std::vector<std::uint8_t> &payload) override;
    void onAttachArcs(ThreadId tid, RecordId rid,
                      const std::vector<DepArc> &kept) override;
    void onAnnotateConsume(ThreadId tid, RecordId rid,
                           const VersionTag &v) override;
    void onInsertProduce(ThreadId tid, RecordId store_rid,
                         const VersionTag &v, Addr addr,
                         std::uint8_t size) override;
    void onVisibilityLimit(ThreadId tid, RecordId limit) override;

    // ---- platform-level hooks ----
    void onCaBroadcast(const CaBroadcast &b);
    void onMetaLatency(ThreadId tid, Cycle latency)
    {
        writer_.appendMetaLatency(tid, latency);
    }

    /** Write the footer (the run's results, shadow fingerprint
     *  included) and close the file. Returns false on I/O failure. */
    bool finalize(const RunResult &result);

  private:
    /** Start an op on thread @p tid's columns: opcode + (gseq, cycle,
     *  lifeguard-step) deltas against its previous op. Returns the body
     *  column; the op ends with writer_.endOp. */
    std::vector<std::uint8_t> &beginOp(OpCode op, ThreadId tid);
    void appendRecord(OpCode op, ThreadId tid, const EventRecord &rec,
                      std::uint32_t charged_bytes,
                      const std::vector<std::uint8_t> &payload);

    struct PerThread
    {
        std::uint64_t lastGseq = 0;
        Cycle lastCycle = 0;
        std::uint64_t lastLgStep = 0;
        RecordId lastRid = 0;     ///< sideband rid delta base
        RecordId lastRetired = 0; ///< kRetire delta base
    };

    TraceWriter writer_;
    std::vector<PerThread> threads_;
    Cycle now_ = 0;
    std::uint64_t lgSteps_ = 0;
    std::uint64_t gseq_ = 0;
};

} // namespace paralog::trace

#endif // PARALOG_TRACE_RECORDER_HPP
