/**
 * @file
 * TSO data path: per-core FIFO store buffers with load forwarding.
 *
 * Stores retire into the buffer and drain to the coherent memory system
 * later. A drain that invalidates a remote block whose last access was a
 * read retiring *after* this store retired is a non-SC R->W conflict;
 * instead of recording an arc the version protocol of section 5.5 runs:
 * the writer's stream gains a produce-version record before its pending
 * store and the reader's pending load is annotated to consume it.
 *
 * A thread's records at or beyond its oldest undrained store are hidden
 * from the consumer so those annotations can always be inserted.
 */

#ifndef PARALOG_CAPTURE_STORE_BUFFER_HPP
#define PARALOG_CAPTURE_STORE_BUFFER_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "app/data_path.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace paralog {

/** Callbacks from the TSO data path into the capture layer. */
class TsoHooks
{
  public:
    virtual ~TsoHooks() = default;

    /** Arcs discovered at drain time belong to the pending store record. */
    virtual void attachArcsToPending(ThreadId tid, RecordId rid,
                                     const std::vector<RawArc> &arcs) = 0;

    /** Non-SC R->W conflict: run the produce/consume version protocol. */
    virtual void onScViolation(ThreadId writer_tid, RecordId writer_rid,
                               Addr addr, std::uint8_t size,
                               const VersionRequest &reader) = 0;

    /** Records with rid >= limit are not yet consumable for tid. */
    virtual void setVisibilityLimit(ThreadId tid, RecordId limit) = 0;
};

class TsoDataPath : public DataPath
{
  public:
    TsoDataPath(const SimConfig &cfg, MemorySystem &mem, TsoHooks &hooks,
                std::uint32_t num_cores);

    LoadResult load(CoreId core, Addr addr, unsigned size,
                    const AccessTag &tag) override;

    AccessResult store(CoreId core, Addr addr, unsigned size,
                       std::uint64_t value, const AccessTag &tag) override;

    bool storeSpace(CoreId core) const override;

    Cycle fence(CoreId core) override;

    /**
     * Drain at most one ready store for @p core (called once per core
     * step by the platform). Returns cycles consumed in the background
     * (not charged to the core).
     */
    void pump(CoreId core, Cycle now);

    /**
     * Earliest cycle at which pump() would drain a store for @p core,
     * or Cycle max if its buffer is empty. Feeds the platform's
     * solo-horizon batching rule: a pending drain is a simulated actor
     * the lifeguard batch window must not cross.
     */
    Cycle
    nextDrainReady(CoreId core) const
    {
        const auto &buf = buffers_[core];
        return buf.empty() ? ~Cycle{0} : buf.front().readyAt;
    }

    /** Buffered stores for a core (tests). */
    std::size_t depth(CoreId core) const { return buffers_[core].size(); }

    /**
     * Retire cycle of the oldest buffered store for @p core (Cycle max
     * when the buffer is empty). Stores retire in program order, so the
     * front entry carries the buffer's minimum. The global minimum over
     * all cores is the live-parallel publication watermark: a drain can
     * raise a consume-version annotation only against a load that
     * retired strictly *after* the draining store
     * (MemorySystem::addArcFrom), so any record appended at or before
     * every buffered store's retire cycle can never be targeted again
     * and is safe to hand to its consumer (CaptureUnit::publishSealed).
     */
    Cycle
    oldestStoreRetire(CoreId core) const
    {
        const auto &buf = buffers_[core];
        return buf.empty() ? ~Cycle{0} : buf.front().tag.retireCycle;
    }

    StatSet stats{"tso"};

  private:
    struct Entry
    {
        Addr addr;
        unsigned size;
        std::uint64_t value;
        AccessTag tag;
        Cycle readyAt;
    };

    void drainOne(CoreId core);
    void updateVisibility(CoreId core);

    const SimConfig &cfg_;
    MemorySystem &mem_;
    TsoHooks &hooks_;
    std::vector<std::deque<Entry>> buffers_;
    std::vector<ThreadId> lastTid_; ///< owning thread per core (visibility)
    Counter &bufferedStoresCtr_{stats.counter("buffered_stores")};
    Counter &forwardsCtr_{stats.counter("forwards")};
    Counter &drainsCtr_{stats.counter("drains")};
    Counter &versionRequestsCtr_{stats.counter("version_requests")};
};

} // namespace paralog

#endif // PARALOG_CAPTURE_STORE_BUFFER_HPP
