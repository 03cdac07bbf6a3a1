#include "capture/validator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace paralog {

namespace {

/** Per-thread clock history: clock snapshot after each appended record,
 *  queryable by record id. */
struct ClockHistory
{
    std::vector<RecordId> rids;                       // ascending
    std::vector<std::vector<RecordId>> clocks;        // parallel

    void
    push(RecordId rid, const std::vector<RecordId> &clock)
    {
        rids.push_back(rid);
        clocks.push_back(clock);
    }

    /** Clock after the latest record with rid' <= rid (empty if none). */
    const std::vector<RecordId> *
    at(RecordId rid) const
    {
        auto it = std::upper_bound(rids.begin(), rids.end(), rid);
        if (it == rids.begin())
            return nullptr;
        return &clocks[static_cast<std::size_t>(
            std::distance(rids.begin(), it) - 1)];
    }
};

void
join(std::vector<RecordId> &dst, const std::vector<RecordId> &src)
{
    for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

} // namespace

HappensBeforeValidator::Result
HappensBeforeValidator::validate(const std::vector<TracedRecord> &trace)
{
    Result result;

    // Clocks hold "done counts": clock[u] = c means records of u with
    // rid < c happen-before this point.
    std::vector<std::vector<RecordId>> vc(
        numThreads_, std::vector<RecordId>(numThreads_, 0));
    std::vector<ClockHistory> history(numThreads_);

    struct Access
    {
        ThreadId tid;
        RecordId rid;
        bool viaAlert;
    };
    struct LineState
    {
        Access lastWrite{kInvalidThread, 0, false};
        std::vector<Access> readsSinceWrite;
        bool hasWrite = false;
    };
    std::unordered_map<Addr, LineState> lines;

    // ConflictAlert bookkeeping: issuer clock after the high-level
    // event, by sequence number.
    std::unordered_map<std::uint64_t, std::pair<ThreadId,
                                                std::vector<RecordId>>>
        caIssuerClock;

    auto ordered_after = [&](const std::vector<RecordId> &clock,
                             const Access &prior) {
        return clock[prior.tid] > prior.rid;
    };

    auto check_line = [&](Addr line, ThreadId tid, RecordId rid,
                          bool is_write,
                          const std::vector<RecordId> &clock,
                          bool via_alert) {
        LineState &ls = lines[line];
        auto report = [&](const Access &prior, const char *kind) {
            ++result.conflictingPairs;
            if (prior.tid == tid ||
                ordered_after(clock, prior)) {
                if (via_alert || prior.viaAlert)
                    ++result.orderedByAlerts;
                else
                    ++result.orderedByArcs;
                return;
            }
            result.violations.push_back(strprintf(
                "%s conflict on line %#llx: (%u,%llu) vs (%u,%llu) "
                "unordered",
                kind, static_cast<unsigned long long>(line), prior.tid,
                static_cast<unsigned long long>(prior.rid), tid,
                static_cast<unsigned long long>(rid)));
        };

        if (is_write) {
            if (ls.hasWrite)
                report(ls.lastWrite, "WAW");
            for (const Access &r : ls.readsSinceWrite)
                report(r, "WAR");
            ls.lastWrite = Access{tid, rid, via_alert};
            ls.hasWrite = true;
            ls.readsSinceWrite.clear();
        } else {
            if (ls.hasWrite)
                report(ls.lastWrite, "RAW");
            ls.readsSinceWrite.push_back(Access{tid, rid, via_alert});
        }
    };

    for (const TracedRecord &tr : trace) {
        const EventRecord &rec = tr.rec;
        ThreadId t = rec.tid;
        if (t >= numThreads_)
            continue;
        std::vector<RecordId> &clock = vc[t];

        // Join along recorded dependence arcs: the arc guarantees the
        // producer completed *through* rid, even across filtered
        // records.
        for (const DepArc &arc : rec.arcs()) {
            if (arc.tid >= numThreads_)
                continue;
            if (const std::vector<RecordId> *pc =
                    history[arc.tid].at(arc.rid))
                join(clock, *pc);
            clock[arc.tid] = std::max(clock[arc.tid], arc.rid + 1);
        }

        bool via_alert = false;
        switch (rec.type) {
          case EventType::kCaBegin:
          case EventType::kCaEnd: {
            // Waiter half: everything after this record happens after
            // the issuer's high-level event...
            auto it = caIssuerClock.find(rec.value);
            if (it != caIssuerClock.end()) {
                join(clock, it->second.second);
                // ...and issuer half: the issuer's subsequent records
                // happen after everything before this arrival.
                join(vc[it->second.first], clock);
            }
            via_alert = true;
            break;
          }
          default:
            break;
        }

        // Own progress.
        clock[t] = std::max(clock[t], rec.rid + 1);

        // Issuer half of a ConflictAlert barrier: the high-level event
        // is ordered after everything every other thread has appended
        // up to the (atomic) broadcast instant, because the issuer's
        // lifeguard waits for all arrivals before processing it.
        if (rec.caSeq != kNoCaSeq) {
            for (ThreadId u = 0; u < numThreads_; ++u) {
                if (u != t)
                    join(clock, vc[u]);
            }
            caIssuerClock[rec.caSeq] = {t, clock};
            via_alert = true;
        }

        // Conflict checking at line granularity.
        switch (rec.type) {
          case EventType::kLoad:
          case EventType::kStore:
          case EventType::kLockAcquire:
          case EventType::kLockRelease:
          case EventType::kBarrierPass: {
            bool is_write = tr.isWrite;
            Addr first = rec.addr & ~static_cast<Addr>(lineBytes_ - 1);
            Addr last = (rec.addr + std::max<unsigned>(1, rec.size) - 1) &
                        ~static_cast<Addr>(lineBytes_ - 1);
            for (Addr line = first; line <= last; line += lineBytes_)
                check_line(line, t, rec.rid, is_write, clock, false);
            break;
          }
          case EventType::kMallocEnd:
          case EventType::kFreeBegin:
          case EventType::kSyscallEnd: {
            // Allocation / kernel-fill events act over their whole
            // range, ordered via ConflictAlert barriers. The shared
            // classifier decides the direction: malloc/free and
            // read()-style syscalls write the range, write()-style
            // syscalls only read the output buffer.
            const AddrRange range = rec.range();
            if (range.empty())
                break;
            Addr first = range.begin & ~static_cast<Addr>(lineBytes_ - 1);
            Addr last =
                (range.end - 1) & ~static_cast<Addr>(lineBytes_ - 1);
            for (Addr line = first; line <= last; line += lineBytes_)
                check_line(line, t, rec.rid, traceIsWrite(rec), clock,
                           via_alert);
            break;
          }
          default:
            break;
        }

        history[t].push(rec.rid, clock);
    }

    return result;
}

} // namespace paralog
