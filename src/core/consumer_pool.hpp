/**
 * @file
 * The skeleton shared by both host-parallel engines (live:
 * core/platform_concurrent.cpp, replay: core/replay_concurrent.cpp).
 * An engine keeps only its producer loop — what it publishes and when
 * — and runs it on the calling thread, which then becomes the
 * supervisor. Everything else has one copy here: the per-stream SPSC
 * rings, min(lgThreads, k) consumer threads stepping their
 * lifeguard cores round-robin, first-error capture, the producer pump
 * and tail flush, the stall watchdogs, the stall signature and the
 * per-stream state dump.
 *
 * Threading contract: everything but the consumer loop runs on the
 * calling thread, so the stall signature reads producer-side state
 * directly and consumer-side state only through atomics (ring
 * counters, publication frontiers, the progress table, version
 * counters); the dump runs only after the consumers joined. The
 * destructor aborts and joins the consumers, so a panic thrown on the
 * producer thread never unwinds past live threads.
 */

#ifndef PARALOG_CORE_CONSUMER_POOL_HPP
#define PARALOG_CORE_CONSUMER_POOL_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "capture/capture_unit.hpp"
#include "common/spsc_ring.hpp"
#include "core/lifeguard_core.hpp"
#include "core/platform.hpp"

namespace paralog {

class ConsumerPool
{
  public:
    /** What the engine contributes besides its producer loop. */
    struct Engine
    {
        const char *name; ///< prefixes watchdog messages and the dump
        std::uint32_t lgThreads;
        /// Serialize whole lifeguard steps (handlers that write
        /// metadata from application reads, e.g. LockSet).
        bool serializeSteps;
        std::uint64_t stallWatchdogIters;
        /// Fold the engine's own producer-side progress terms.
        std::function<void(SignatureFold &)> foldState;
        /// Print one line of the engine's own state for a stream.
        std::function<void(ThreadId)> dumpStream;
    };

    /** Attach a ring to every capture unit and start the consumers. */
    ConsumerPool(Engine engine,
                 const std::vector<std::unique_ptr<CaptureUnit>> &captures,
                 const std::vector<std::unique_ptr<LifeguardCore>> &cores,
                 const ProgressTable &progress, VersionStore &versions);
    ~ConsumerPool();
    ConsumerPool(const ConsumerPool &) = delete;
    ConsumerPool &operator=(const ConsumerPool &) = delete;

    /** A consumer failed or a watchdog fired: stop producing. */
    bool aborted() const { return abort_.load(std::memory_order_acquire); }

    /**
     * Producer pump: hand every stream's sealed head records to its
     * ring (CaptureUnit::publishSealed). @p sealed(t, head) is the
     * engine's seal test. The stream named by fault point "seal.stall"
     * is never published, so its consumer starves and the watchdog
     * must catch the stall.
     */
    template <typename Sealed>
    void
    publish(Sealed &&sealed)
    {
        for (ThreadId t = 0; t < captures_.size(); ++t) {
            if (t == stallStream_)
                continue;
            captures_[t]->publishSealed(
                [&](const EventRecord &head) { return sealed(t, head); });
        }
    }

    /** Producer-side stall watchdog, sampled every 64 calls; on a
     *  stall it aborts, joins, dumps and panics. */
    void poll();

    /** Tail flush once nothing more can be sealed late: run @p pump
     *  until every stream is fully handed to its ring. */
    template <typename Pump>
    void
    flush(Pump &&pump)
    {
        while (!aborted()) {
            pump();
            if (std::all_of(captures_.begin(), captures_.end(),
                            [](auto &c) { return c->allPublished(); }))
                return;
            poll();
            std::this_thread::yield();
        }
    }

    /**
     * Supervise the consumers to completion (the producer is done):
     * sleep-poll with a tail watchdog, join, dump and panic on a stall,
     * and rethrow the first consumer error.
     */
    void finish();

    /** Abort and join the consumers, print the state dump, and panic
     *  with @p why. */
    [[noreturn]] void stop(const std::string &why);

  private:
    void consume(std::uint32_t slot);
    std::uint64_t signature() const;
    void joinAll();
    void dump() const;

    Engine engine_;
    const std::vector<std::unique_ptr<CaptureUnit>> &captures_;
    const std::vector<std::unique_ptr<LifeguardCore>> &cores_;
    const ProgressTable &progress_;
    Counter &produced_;
    Counter &consumed_;
    ThreadId failTid_ = kInvalidThread;     ///< fault point "lg.fail"
    ThreadId stallStream_ = kInvalidThread; ///< fault point "seal.stall"

    /// Ring capacity trades hand-off slack against footprint; sealed
    /// records overflow to a producer-side queue when a consumer lags,
    /// so the seal never blocks the producer.
    static constexpr std::size_t kRingSlots = 4096;
    std::deque<SpscRing<EventRecord>> rings_;

    std::uint32_t nConsumers_ = 0;
    std::atomic<bool> abort_{false};
    std::atomic<std::uint32_t> running_{0};
    std::mutex errMutex_;
    std::exception_ptr firstError_;
    std::mutex stepMutex_;
    std::vector<std::thread> threads_;

    // Same cadence as the serial schedulers: sampled every 64 producer
    // iterations so the signature stays off the hot loop's profile.
    ProgressWatchdog producerWatchdog_;
    std::uint64_t tick_ = 0;
};

} // namespace paralog

#endif // PARALOG_CORE_CONSUMER_POOL_HPP
