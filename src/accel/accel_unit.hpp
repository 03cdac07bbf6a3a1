/**
 * @file
 * Combined accelerator stage between event delivery and the lifeguard
 * (Figure 2): Inheritance Tracking, Idempotent Filters and the Metadata
 * TLB, configured by the lifeguard's policy, plus the parallel-monitoring
 * mechanisms of section 4 (delayed advertising, ConflictAlert-driven
 * flushes, threshold flushes, stall flushes).
 */

#ifndef PARALOG_ACCEL_ACCEL_UNIT_HPP
#define PARALOG_ACCEL_ACCEL_UNIT_HPP

#include <vector>

#include "accel/accel_config.hpp"
#include "accel/idempotent_filter.hpp"
#include "accel/it_table.hpp"
#include "accel/lg_event.hpp"
#include "accel/mtlb.hpp"
#include "sim/config.hpp"

namespace paralog {

class AccelUnit
{
  public:
    AccelUnit(const SimConfig &cfg, const LifeguardPolicy &policy);

    /**
     * Run one delivered record through the accelerators. Events that must
     * reach the lifeguard are appended to @p out (possibly none if the
     * record was absorbed, possibly several if state was flushed).
     */
    void process(const EventRecord &rec, bool races_syscall,
                 std::vector<LgEvent> &out);

    /**
     * The lifeguard thread is stalled (dependence / CA / version): flush
     * IT so an accurate progress can be published — this is the deadlock
     * avoidance rule of section 4.2. IF holds no pending effects, so it
     * stays live.
     */
    void onStall(std::vector<LgEvent> &out);

    /**
     * Delayed advertising: smallest record ID still held live by IT,
     * or kInvalidRecord if none (IF entries pin nothing; see
     * accel_config.hpp). The published progress must not exceed this
     * value.
     */
    RecordId delayedMinRid() const;

    /**
     * Enforce the advertising threshold: if progress would lag the last
     * processed record by more than the configured threshold, flush.
     */
    void maybeThresholdFlush(RecordId last_processed,
                             std::vector<LgEvent> &out);

    MetadataTlb &mtlb() { return mtlb_; }
    ItTable &it() { return it_; }
    IdempotentFilter &ifilter() { return if_; }

    /** Thread whose registers the IT table currently describes (differs
     *  from the record tid only around timesliced thread switches). */
    ThreadId regOwner() const { return regOwner_; }

  private:
    void highLevelFlush(HighLevelKind kind, std::vector<LgEvent> &out);

    const SimConfig &cfg_;
    bool itEnabled_;
    bool ifEnabled_;
    ItTable it_;
    IdempotentFilter if_;
    MetadataTlb mtlb_;
    ThreadId regOwner_ = kInvalidThread;
};

} // namespace paralog

#endif // PARALOG_ACCEL_ACCEL_UNIT_HPP
