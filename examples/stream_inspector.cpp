/**
 * @file
 * Event-stream inspector: runs a tiny two-thread workload with trace
 * capture on, then pretty-prints the captured streams — record types,
 * dependence arcs, ConflictAlert barriers, compression — and validates
 * happens-before completeness. A debugging companion for anyone
 * extending the capture pipeline.
 */

#include <cstdio>

#include "capture/validator.hpp"
#include "common/logging.hpp"
#include "core/experiment.hpp"

using namespace paralog;

int
main()
{
    setQuiet(true);
    ExperimentOptions opt;
    opt.scale = 1200;
    PlatformConfig cfg = makeConfig(WorkloadKind::kSwaptions,
                                    LifeguardKind::kTaintCheck,
                                    MonitorMode::kParallel, 2, opt);
    cfg.traceCapture = true;
    Platform p(cfg);
    p.run();

    const auto &trace = p.trace().records();
    std::printf("captured %zu records; first 60 in capture order:\n\n",
                trace.size());
    std::printf("%6s %3s %6s  %-14s %-14s %s\n", "seq", "tid", "rid",
                "type", "addr/range", "annotations");

    std::size_t shown = 0;
    for (const TracedRecord &tr : trace) {
        if (shown++ >= 60)
            break;
        const EventRecord &r = tr.rec;
        char where[64] = "";
        if (r.isMemAccess()) {
            std::snprintf(where, sizeof(where), "%#llx",
                          (unsigned long long)r.addr);
        } else if (!r.range().empty()) {
            std::snprintf(where, sizeof(where), "[%#llx,+%llu)",
                          (unsigned long long)r.range().begin,
                          (unsigned long long)r.range().size());
        } else if (r.addr) {
            std::snprintf(where, sizeof(where), "%#llx",
                          (unsigned long long)r.addr);
        }
        std::printf("%6llu %3u %6llu  %-14s %-14s",
                    (unsigned long long)tr.globalSeq, r.tid,
                    (unsigned long long)r.rid, toString(r.type), where);
        for (const DepArc &a : r.arcs()) {
            std::printf(" arc(%u,%llu)", a.tid,
                        (unsigned long long)a.rid);
        }
        if (r.caSeq != kNoCaSeq)
            std::printf(" CA#%llu", (unsigned long long)r.caSeq);
        if (r.type == EventType::kCaBegin || r.type == EventType::kCaEnd)
            std::printf(" ca#%llu", (unsigned long long)r.value);
        std::printf("\n");
    }

    // Compression summary (the LBA "<1 byte per record" claim).
    std::printf("\ncompression:\n");
    for (ThreadId t = 0; t < 2; ++t) {
        auto &c = p.capture(t).compressor();
        std::printf("  thread %u: %llu records, %.2f B/record\n", t,
                    (unsigned long long)c.totalRecords(),
                    c.averageBytes());
    }

    // Happens-before completeness of the captured arcs.
    HappensBeforeValidator v(2);
    auto result = v.validate(trace);
    std::printf("\nhappens-before validation: %zu conflicting pairs, "
                "%llu by arcs, %llu by alerts, %zu UNORDERED\n",
                (std::size_t)result.conflictingPairs,
                (unsigned long long)result.orderedByArcs,
                (unsigned long long)result.orderedByAlerts,
                result.violations.size());
    return result.ok() ? 0 : 1;
}
