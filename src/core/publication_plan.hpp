/**
 * @file
 * Publication plan of the host-parallel replay engine
 * (core/replay_concurrent.cpp): for each recorded stream, the final
 * record sequence and the journal position after which each record may
 * be handed to its consumer. Internal to the replay engine; declared
 * here so tests can check the plan against an independent builder.
 */

#ifndef PARALOG_CORE_PUBLICATION_PLAN_HPP
#define PARALOG_CORE_PUBLICATION_PLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "app/event.hpp"
#include "common/types.hpp"

namespace paralog {

/** One record of a stream's final (post-insert) shape. */
struct SealEntry
{
    RecordId rid = 0;
    EventType type = EventType::kNone;
    /// Greatest gseq of any journal op that mutates or exposes this
    /// record; it may be handed to the consumer once that op applied.
    std::uint64_t seal = 0;
};

struct StreamPlan
{
    std::vector<SealEntry> seq;
    /// Prefix-max of seals: publication is in stream order, so a
    /// record's effective seal includes every predecessor's.
    std::vector<std::uint64_t> pubSeal;
};

/** Build the plans of the first @p k streams of the journal at @p path
 *  in one decode of each stream. Panics on an unreadable journal. */
std::vector<StreamPlan> buildPublicationPlans(const std::string &path,
                                              std::uint32_t k);

} // namespace paralog

#endif // PARALOG_CORE_PUBLICATION_PLAN_HPP
