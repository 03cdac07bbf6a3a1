/**
 * @file
 * One-decode builder of the concurrent replay engine's publication
 * plans (core/publication_plan.hpp).
 *
 * A record's seal is the greatest gseq among its append, the
 * visibility-limit move that exposes it, arc attachments, effective
 * consume-version annotations, and the ConflictAlert broadcast that
 * stamps or targets it. Each stream is decoded once; its shape is
 * rebuilt in journal order — appends in order, produce records
 * inserted before their store (mirroring LogBuffer::insertBefore), and
 * visibility tracked so a record hidden behind the TSO store buffer is
 * sealed by the kVisLimit op that exposes it. Arc attachments and
 * visibility seals only involve the stream itself and apply inline.
 *
 * Three seals need facts that may sit in streams not decoded yet, so
 * they are recorded during the pass and resolved after it:
 *
 *  - a CA arrival record (kCaBegin/kCaEnd) is sealed by the last
 *    broadcast of its CA sequence;
 *  - a broadcast seals the issuer's high-level record (the broadcast
 *    op injects the barrier entry and stamps that record — a consumer
 *    reaching either earlier would sail through the barrier);
 *  - a consume annotation seals its load only if a produce of the same
 *    version follows it. A later annotation targets an already
 *    consumed record, which by publication order is already out of the
 *    log buffer when the producer reaches it, making the live "already
 *    consumed" no-op deterministic.
 *
 * Seals combine by max, so resolving them late gives the same plan as
 * applying them in journal order, provided each reaches the same
 * entries. CA values are kept per CA entry, in append order, which
 * inserts never disturb. The issuer seal reaches the appended entries
 * with the issuer's rid — every entry but the produce records, which
 * only kInsertProduce creates. An annotation applied in journal order
 * reaches the same-rid entries present at that point; applied late it
 * also reaches same-rid entries created afterwards, but those carry a
 * seal at least their creating op's gseq, which is greater than the
 * annotation's (gseq grows along a stream), so the max leaves them
 * unchanged. Where several records share a rid (CA records borrow the
 * retire counter), by-rid seals apply to all of them — over-sealing
 * only delays publication, never breaks it.
 */

#include "core/publication_plan.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hpp"
#include "trace/trace_reader.hpp"

namespace paralog {
namespace {

using trace::OpCode;
using trace::TraceOp;

struct TagHash
{
    std::size_t
    operator()(const VersionTag &t) const
    {
        return std::hash<std::uint64_t>()(
            (static_cast<std::uint64_t>(t.tid) << 48) ^ t.rid);
    }
};

/** A seal recorded by the pass and applied to its target after it. */
struct DeferredSeal
{
    ThreadId tid = 0;
    RecordId rid = 0;
    std::uint64_t gseq = 0;
    VersionTag version{}; ///< annotations only
};

std::vector<SealEntry>::iterator
lowerRid(std::vector<SealEntry> &seq, RecordId rid)
{
    return std::lower_bound(
        seq.begin(), seq.end(), rid,
        [](const SealEntry &e, RecordId r) { return e.rid < r; });
}

/** Raise the seal of every entry with @p rid (produce records too, or
 *  not) to at least @p g. */
void
sealRid(std::vector<SealEntry> &seq, RecordId rid, std::uint64_t g,
        bool include_produce)
{
    for (auto it = lowerRid(seq, rid); it != seq.end() && it->rid == rid;
         ++it) {
        if (include_produce || it->type != EventType::kProduceVersion)
            it->seal = std::max(it->seal, g);
    }
}

bool
isCaArrival(EventType type)
{
    return type == EventType::kCaBegin || type == EventType::kCaEnd;
}

} // namespace

std::vector<StreamPlan>
buildPublicationPlans(const std::string &path, std::uint32_t k)
{
    trace::TraceReader reader(path);
    PARALOG_ASSERT(reader.ok(), "concurrent replay pre-pass: %s",
                   reader.error().c_str());

    std::unordered_map<VersionTag, std::uint64_t, TagHash> lastProduce;
    std::unordered_map<std::uint64_t, std::uint64_t> caGseq; // by CA seq
    std::vector<DeferredSeal> issuerSeals;
    std::vector<DeferredSeal> annotations;
    /// Per stream: the CA sequence of each CA arrival entry, in order.
    std::vector<std::vector<std::uint64_t>> caValues(k);

    std::vector<StreamPlan> plans(k);
    for (ThreadId t = 0; t < k; ++t) {
        std::vector<SealEntry> &seq = plans[t].seq;
        RecordId visLimit = kInvalidRecord;
        std::vector<std::size_t> pendingVis;
        auto trackVisibility = [&](std::size_t idx, RecordId rid) {
            if (visLimit != kInvalidRecord && rid >= visLimit)
                pendingVis.push_back(idx);
        };

        trace::TraceReader::OpStream s = reader.opStream(t);
        TraceOp op;
        while (s.next(op)) {
            switch (op.op) {
              case OpCode::kAppend:
              case OpCode::kAppendCa:
                if (isCaArrival(op.rec.type))
                    caValues[t].push_back(op.rec.value);
                seq.push_back(SealEntry{op.rec.rid, op.rec.type, op.gseq});
                trackVisibility(seq.size() - 1, op.rec.rid);
                break;
              case OpCode::kInsertProduce: {
                std::uint64_t &g = lastProduce[op.version];
                g = std::max(g, op.gseq);
                // Mirror LogBuffer::insertBefore: directly before the
                // same-rid store when present, else before the first
                // record with rid >= store rid, else at the tail.
                auto pos = lowerRid(seq, op.rid);
                auto ins = pos;
                for (auto it = pos;
                     it != seq.end() && it->rid == op.rid; ++it) {
                    if (it->type == EventType::kStore) {
                        ins = it;
                        break;
                    }
                }
                std::size_t idx =
                    static_cast<std::size_t>(ins - seq.begin());
                seq.insert(ins, SealEntry{op.rid,
                                          EventType::kProduceVersion,
                                          op.gseq});
                for (std::size_t &p : pendingVis)
                    if (p >= idx)
                        ++p;
                // The produce shares the (store-buffer-hidden) store's
                // rid, so it is exposed by the same kVisLimit move.
                trackVisibility(idx, op.rid);
                break;
              }
              case OpCode::kVisLimit: {
                RecordId lim = op.visLimit;
                for (std::size_t i = 0; i < pendingVis.size();) {
                    SealEntry &e = seq[pendingVis[i]];
                    if (lim == kInvalidRecord || e.rid < lim) {
                        e.seal = std::max(e.seal, op.gseq);
                        pendingVis[i] = pendingVis.back();
                        pendingVis.pop_back();
                    } else {
                        ++i;
                    }
                }
                visLimit = lim;
                break;
              }
              case OpCode::kAttachArcs:
                sealRid(seq, op.rid, op.gseq, true);
                break;
              case OpCode::kAnnotateConsume:
                annotations.push_back(
                    DeferredSeal{t, op.rid, op.gseq, op.version});
                break;
              case OpCode::kCaBroadcast: {
                std::uint64_t &g = caGseq[op.ca.seq];
                g = std::max(g, op.gseq);
                issuerSeals.push_back(DeferredSeal{
                    op.ca.issuer, op.ca.issuerEventRid, op.gseq, {}});
                break;
              }
              case OpCode::kRetire:
                break;
            }
        }
        PARALOG_ASSERT(reader.ok(), "concurrent replay pre-pass: %s",
                       reader.error().c_str());
        PARALOG_ASSERT(pendingVis.empty(),
                       "concurrent replay pre-pass: stream %u ends with "
                       "%zu records never made visible",
                       t, pendingVis.size());
    }

    for (ThreadId t = 0; t < k; ++t) {
        std::size_t next = 0;
        for (SealEntry &e : plans[t].seq) {
            if (!isCaArrival(e.type))
                continue;
            auto it = caGseq.find(caValues[t][next++]);
            if (it != caGseq.end())
                e.seal = std::max(e.seal, it->second);
        }
    }
    for (const DeferredSeal &d : issuerSeals) {
        if (d.tid < k)
            sealRid(plans[d.tid].seq, d.rid, d.gseq, false);
    }
    for (const DeferredSeal &d : annotations) {
        auto it = lastProduce.find(d.version);
        if (it != lastProduce.end() && d.gseq < it->second)
            sealRid(plans[d.tid].seq, d.rid, d.gseq, true);
    }

    for (StreamPlan &plan : plans) {
        plan.pubSeal.resize(plan.seq.size());
        std::uint64_t run = 0;
        for (std::size_t i = 0; i < plan.seq.size(); ++i) {
            run = std::max(run, plan.seq[i].seal);
            plan.pubSeal[i] = run;
        }
    }
    return plans;
}

} // namespace paralog
