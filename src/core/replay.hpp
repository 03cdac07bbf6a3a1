/**
 * @file
 * Replay execution mode: re-monitor a recorded run from its
 * `paralog-trace-v1` journal, with no application cores.
 *
 * One ReplayCore per recorded application thread re-applies the
 * journalled producer-side stream mutations (appends, CA insertions,
 * TSO annotations, visibility-limit moves, retire ticks) at their
 * recorded simulated cycles — and, within a cycle, only after the
 * recorded number of global single-pop lifeguard steps, which
 * reproduces the live scheduler's producer/consumer interleaving
 * exactly, whether either side delivered in batches or one record at
 * a time. The lifeguard cores, order enforcers, accelerators, progress
 * table, ConflictAlert barriers and version store are the real ones,
 * so when the recorded lifeguard is replayed the delivery order,
 * lifeguard results, shadow fingerprint and every stats column
 * reproduce the live run bit-identically (self-checked against the
 * trace footer).
 *
 * Replaying under a *different* lifeguard re-monitors the same event
 * streams: results are genuine analysis output, but the recording only
 * contains what the recorded lifeguard's event filter captured, and
 * metadata-access timing uses a fresh memory hierarchy (no application
 * interference), so cross-lifeguard replays are approximate in timing
 * and in any events the recorded filter dropped.
 */

#ifndef PARALOG_CORE_REPLAY_HPP
#define PARALOG_CORE_REPLAY_HPP

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/lifeguard_core.hpp"
#include "core/platform.hpp"
#include "trace/trace_reader.hpp"

namespace paralog {

struct ReplayConfig
{
    std::string path;
    /// Replay under this lifeguard instead of the recorded one.
    bool lifeguardOverride = false;
    LifeguardKind lifeguard = LifeguardKind::kTaintCheck;
    std::uint64_t maxCycles = 1ULL << 36;
    std::uint64_t stallWatchdogIters = 2'000'000;
    /**
     * Host lifeguard threads. 0 and 1 select the serial engine.
     * >= 2 selects the concurrent engine: the calling thread re-applies
     * the journal while min(lgThreads, k) consumer threads run the
     * lifeguard cores, fed through lock-free SPSC rings. The footer
     * self-check holds the serial engine to ResultTier::kExact and the
     * concurrent one to ResultTier::kResults (core/run_stats.hpp).
     */
    std::uint32_t lgThreads = 0;
};

/** Feeds one recorded thread's journal into its capture unit. */
class ReplayCore
{
  public:
    /** @p filter re-filters replayed appends for a lifeguard other
     *  than the recorded one (null = replay verbatim). Carried arcs of
     *  dropped records move to the next surviving record, like the
     *  live capture unit's conservative carry. */
    ReplayCore(ThreadId tid, trace::TraceReader &reader,
               CaptureUnit &unit, CaManager &ca,
               const EventFilter *filter = nullptr);

    /** The next journal op not yet applied, or nullptr at stream end.
     *  Inline: the serial scheduler's hooks call it several times per
     *  iteration. */
    const trace::TraceOp *
    peek()
    {
        if (!hasPending_ && !exhausted_) {
            if (stream_.next(pending_))
                hasPending_ = true;
            else
                endOfStream();
        }
        return hasPending_ ? &pending_ : nullptr;
    }

    /** Apply the pending op to the capture unit / CA manager. */
    void apply();

    bool done() { return peek() == nullptr; }

  private:
    /** Marks the journal exhausted; a stream that ended because the
     *  reader failed (a lazily CRC-checked chunk) panics instead. */
    void endOfStream();

    ThreadId tid_;
    const trace::TraceReader &reader_;
    CaptureUnit &unit_;
    CaManager &ca_;
    const EventFilter *filter_;
    std::vector<DepArc> arcsCarry_; ///< arcs of re-filtered records
    /// Rids this replay's re-filter dropped, in stream order: a later
    /// kAttachArcs to one of them must carry its arcs (live capture
    /// would), while arcs to records the *recording* never held are
    /// already carried inside a later journalled append. Sorted because
    /// a thread's append rids never decrease (the record decoder
    /// refuses a rid delta that wraps), so lookups binary-search it.
    std::vector<RecordId> droppedRids_;
    trace::TraceReader::OpStream stream_;
    trace::TraceOp pending_;
    bool hasPending_ = false;
    bool exhausted_ = false;
};

class ReplayPlatform
{
  public:
    explicit ReplayPlatform(ReplayConfig cfg);
    ~ReplayPlatform();

    /** Replay to completion. Same-lifeguard replays self-check against
     *  the recorded footer and panic on any divergence. */
    RunResult run();

    const trace::TraceReader &reader() const { return reader_; }
    bool replaysRecordedLifeguard() const { return sameLifeguard_; }
    Lifeguard &lifeguard() { return *lifeguard_; }

    /** True when run() will use the host-parallel engine. */
    bool concurrent() const { return cfg_.lgThreads >= 2; }

  private:
    /// Implemented in replay_concurrent.cpp.
    RunResult runConcurrent();
    /// Shared result assembly (per-core stats, version counters,
    /// violation and shadow fingerprints; app stats from the footer).
    RunResult collectResult(Cycle total_cycles);
    /// The footer self-check: panics unless @p result matches the
    /// recorded results on every column of @p tier.
    void checkFooter(const RunResult &result, ResultTier tier) const;

    // SerialScheduler hooks (core/serial_scheduler.hpp). The producers
    // are the recorded journals, one per application thread.
    friend class SerialScheduler;
    bool producersDone() const;
    void produce(Cycle now, std::uint64_t lg_steps);

    /// Defined here so it inlines: the loop calls it twice per
    /// iteration (advance, solo horizon).
    Cycle
    nextProducerCycle() const
    {
        Cycle next = ~Cycle{0};
        for (const auto &p : replayCores_) {
            if (const trace::TraceOp *op = p->peek())
                next = std::min(next, op->cycle);
        }
        return next;
    }

    /// An op gated on a future lifeguard step has cycle <= now and pins
    /// the horizon to now: conservative, and result-invariant.
    Cycle soloHorizon() const { return nextProducerCycle(); }
    void afterLgStep(std::uint32_t) {}
    void foldState(SignatureFold &fold, std::uint64_t lg_steps) const;
    void dumpStream(ThreadId tid) const;

    ReplayConfig cfg_;
    trace::TraceReader reader_;
    SimConfig sim_;
    std::uint32_t k_ = 0;
    LifeguardKind lifeguardKind_;
    bool sameLifeguard_ = true;

    std::unique_ptr<Lifeguard> lifeguard_;
    std::unique_ptr<ProgressTable> progress_;
    std::unique_ptr<CaManager> caMgr_;
    VersionStore versions_;
    /// Fresh metadata memory hierarchy for cross-lifeguard replays
    /// (same-lifeguard replays consume the recorded latency sideband).
    std::unique_ptr<MemorySystem> mem_;

    EventFilter filter_; ///< cross-lifeguard re-filtering
    std::vector<std::unique_ptr<CaptureUnit>> captures_;
    std::vector<std::unique_ptr<LifeguardCore>> lgCores_;
    std::vector<std::unique_ptr<ReplayCore>> replayCores_;
    std::vector<trace::TraceReader::LatencyStream> latStreams_;
};

} // namespace paralog

#endif // PARALOG_CORE_REPLAY_HPP
