/**
 * @file
 * Temporary versioned-metadata store for TSO support (section 5.5).
 * Writers snapshot the pre-overwrite metadata under a version tag; the
 * reader's lifeguard waits for the version, consumes it once, and the
 * entry is discarded.
 *
 * Read-side-writer extension: for lifeguards that write metadata from
 * application *read* handlers (LockSet), the entry also records whether
 * the writer's store handler has already applied its own metadata
 * update ('writerDone'). A late-consuming reader uses that bit to keep
 * its snapshot-based decision while suppressing a metadata write that
 * would clobber the newer state (see README, "TSO versioning
 * protocol").
 */

#ifndef PARALOG_LIFEGUARD_VERSION_STORE_HPP
#define PARALOG_LIFEGUARD_VERSION_STORE_HPP

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {

class VersionStore
{
  public:
    struct Versioned
    {
        std::uint64_t bits = 0;
        Addr addr = 0;
        std::uint8_t size = 0;
        /// The producing writer's store handler already ran (its newer
        /// metadata is live); a read-side-writer consumer must not
        /// overwrite it with a snapshot-derived value.
        bool writerDone = false;
    };

    /**
     * Publish a snapshot. Returns false (and stores nothing) when the
     * tag is already live (duplicate produce, e.g. one version request
     * per cache line of a line-crossing conflict: keep-first wins) or
     * when the consumer already took a version with this tag or a
     * later one of the same thread (a second conflicting store can
     * re-produce a tag after its reader consumed it, and the
     * re-created entry would leak — consumers visit each record
     * exactly once, in rid order).
     */
    bool produce(const VersionTag &v, const Versioned &data);

    /** produce() on behalf of a lifeguard without a produce handler
     *  (the liveness backstop); a stored snapshot is also counted as
     *  "produced_backstop". */
    void produceBackstop(const VersionTag &v, const Versioned &data);

    bool available(const VersionTag &v) const;

    /** Fetch and erase; panics if unavailable (enforcement bug). */
    Versioned consume(const VersionTag &v);

    /** Record that the writer's store handler has run. No-op if the
     *  consumer already took the entry (it ran first: natural order). */
    void markWriterDone(const VersionTag &v);

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    /** Visit every live entry (watchdog diagnostics, leak checks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[tag, data] : entries_)
            fn(tag, data);
    }

    StatSet stats{"versions"};

  private:
    struct TagHash
    {
        std::size_t
        operator()(const VersionTag &t) const
        {
            return std::hash<std::uint64_t>()(
                (static_cast<std::uint64_t>(t.tid) << 48) ^ t.rid);
        }
    };

    /// In concurrent monitoring mode the store is touched by every
    /// lifeguard thread (producers snapshot, consumers take); one lock
    /// covers both maps. The delivery protocol guarantees a consume is
    /// never attempted before its produce, so lock ordering is trivial
    /// and results stay schedule-independent.
    mutable std::mutex mutex_;
    std::unordered_map<VersionTag, Versioned, TagHash> entries_;
    /// Highest consumed rid per consumer thread. Consumption follows
    /// stream (rid) order, so any produce at or below the watermark can
    /// never be consumed again.
    std::unordered_map<ThreadId, RecordId> consumedWatermark_;
    Counter &producedCtr_{stats.counter("produced")};
    Counter &producedStaleCtr_{stats.counter("produced_stale")};
    Counter &producedDuplicateCtr_{stats.counter("produced_duplicate")};
    Counter &producedBackstopCtr_{stats.counter("produced_backstop")};
    Counter &consumedCtr_{stats.counter("consumed")};
    Counter &writerFirstCtr_{stats.counter("writer_first")};
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_VERSION_STORE_HPP
