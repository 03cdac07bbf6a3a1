/**
 * @file
 * Isolated per-layer drivers for the traced run. Each one feeds real
 * captured data through a single layer's public call and times only
 * that call:
 *
 *  - an SC live cell is re-run with Platform's traceCapture tee, and the
 *    teed records are pushed through StreamCompressor::encode (capture),
 *    encode + trace::encodeSideband (trace), OrderEnforcer::tryDeliver
 *    on a CaptureUnit filled by replayAppend (deliver), AccelUnit::process
 *    (accel) and Lifeguard::handle on the accelerator output (lifeguard);
 *  - a trace file is opened with TraceReader and every thread's op
 *    stream drained (trace decode).
 *
 * Accumulated totals land in Context::layer and are turned into
 * per-record figures when the run is reported.
 */

#include <optional>

#include "bench.hpp"
#include "accel/accel_unit.hpp"
#include "capture/capture_unit.hpp"
#include "cli/args.hpp"
#include "deliver/ca_manager.hpp"
#include "deliver/order_enforce.hpp"
#include "deliver/progress_table.hpp"
#include "lifeguard/lifeguard.hpp"
#include "trace/codec.hpp"
#include "trace/trace_reader.hpp"

namespace perfbench {

using namespace paralog;

namespace {

constexpr std::uint32_t kCores = 4;

/** Accumulate @p s seconds over @p n items into `<key>` (ns/item). */
void
addRate(Context &ctx, const std::string &key, double s, std::uint64_t n)
{
    ctx.layer[key + "#s"] += s;
    ctx.layer[key + "#n"] += static_cast<double>(n);
    double total_n = ctx.layer[key + "#n"];
    ctx.metrics.set(key,
                    total_n > 0 ? ctx.layer[key + "#s"] * 1e9 / total_n : 0,
                    "ns");
}

bool
isCaRecord(const EventRecord &rec)
{
    return rec.type == EventType::kCaBegin || rec.type == EventType::kCaEnd;
}

} // namespace

void
measureRecordLayers(Context &ctx, WorkloadKind workload,
                    LifeguardKind lifeguard, std::uint64_t scale)
{
    ExperimentOptions eo;
    eo.scale = scale;
    eo.seed = ctx.opt.seed;
    PlatformConfig cfg = makeConfig(workload, lifeguard,
                                    MonitorMode::kParallel, kCores, eo);
    cfg.traceCapture = true;
    Platform p(cfg);
    p.run();
    const std::vector<TracedRecord> &tee = p.trace().records();
    const LifeguardPolicy policy = p.lifeguard().policy();

    // capture: the compressor's size model alone.
    {
        Spans::Scope s(ctx.spans, "capture", "StreamCompressor::encode");
        std::vector<StreamCompressor> comp(kCores);
        Clock::time_point t0 = Clock::now();
        for (const TracedRecord &tr : tee)
            comp[tr.rec.tid].encode(tr.rec);
        addRate(ctx, "capture.encode_ns_per_rec", secondsSince(t0),
                tee.size());
    }

    // trace: the journal's payload bytes plus the record sideband.
    {
        Spans::Scope s(ctx.spans, "trace", "encode+encodeSideband");
        std::vector<StreamCompressor> comp(kCores);
        std::vector<RecordId> last_rid(kCores, 0);
        std::vector<std::uint8_t> bytes;
        bytes.reserve(1 << 20);
        Clock::time_point t0 = Clock::now();
        for (const TracedRecord &tr : tee) {
            if (bytes.size() > (1u << 20) - 256)
                bytes.clear();
            comp[tr.rec.tid].encode(tr.rec, &bytes);
            trace::encodeSideband(tr.rec, last_rid[tr.rec.tid], bytes);
        }
        addRate(ctx, "trace.encode_ns_per_rec", secondsSince(t0),
                tee.size());
    }

    // deliver: drain each thread's stream with every peer finished, so
    // every check passes and the figure is the enforcer's own cost.
    // ConflictAlert records are left out: their barriers need live
    // peers to release them.
    {
        Spans::Scope s(ctx.spans, "deliver", "OrderEnforcer::tryDeliver");
        SimConfig sim = cfg.sim;
        sim.logBufferBytes = 1ULL << 40;
        ProgressTable progress(kCores);
        for (ThreadId t = 0; t < kCores; ++t)
            progress.finish(t);
        CaManager ca(kCores);
        double secs = 0;
        std::uint64_t delivered = 0;
        for (ThreadId t = 0; t < kCores; ++t) {
            CaptureUnit unit(t, sim, EventFilter{});
            for (const TracedRecord &tr : tee) {
                if (tr.rec.tid != t || isCaRecord(tr.rec))
                    continue;
                EventRecord rec = tr.rec;
                rec.caSeq = kNoCaSeq;
                unit.replayAppend(std::move(rec), tr.rec.chargedBytes);
            }
            OrderEnforcer enf(t, unit, progress, ca,
                              [](const VersionTag &) { return true; });
            OrderEnforcer::Delivery d;
            Clock::time_point t0 = Clock::now();
            while (enf.tryDeliver(d) == DeliverStatus::kDelivered)
                ++delivered;
            secs += secondsSince(t0);
        }
        addRate(ctx, "deliver.try_deliver_ns_per_rec", secs, delivered);
    }

    // accel, then lifeguard on the accelerator's output.
    std::vector<std::unique_ptr<AccelUnit>> units;
    std::vector<std::vector<LgEvent>> events(kCores);
    {
        Spans::Scope s(ctx.spans, "accel", "AccelUnit::process");
        for (ThreadId t = 0; t < kCores; ++t)
            units.push_back(std::make_unique<AccelUnit>(cfg.sim, policy));
        Clock::time_point t0 = Clock::now();
        for (const TracedRecord &tr : tee)
            units[tr.rec.tid]->process(tr.rec, false, events[tr.rec.tid]);
        addRate(ctx, "accel.process_ns_per_rec", secondsSince(t0),
                tee.size());
    }
    std::uint64_t out = 0;
    for (const auto &ev : events)
        out += ev.size();
    ctx.layer["accel.in"] += static_cast<double>(tee.size());
    ctx.layer["accel.out"] += static_cast<double>(out);
    ctx.metrics.set("accel.absorb_ratio",
                    1.0 - ctx.layer["accel.out"] / ctx.layer["accel.in"],
                    "ratio");
    {
        Spans::Scope s(ctx.spans, "lifeguard", "Lifeguard::handle");
        LifeguardPtr lg = makeLifeguard(lifeguard, kCores);
        VersionStore versions;
        std::vector<std::unique_ptr<LgContext>> lctx;
        for (ThreadId t = 0; t < kCores; ++t)
            lctx.push_back(std::make_unique<LgContext>(
                lg->shadow(), units[t]->mtlb(), versions, nullptr,
                static_cast<CoreId>(t)));
        Clock::time_point t0 = Clock::now();
        for (ThreadId t = 0; t < kCores; ++t)
            for (const LgEvent &ev : events[t]) {
                lctx[t]->beginEvent();
                lg->handle(ev, *lctx[t]);
            }
        addRate(ctx,
                std::string("lifeguard.") + cli::flagName(lifeguard) +
                    ".handle_ns_per_event",
                secondsSince(t0), out);
    }
}

void
measureTraceScan(Context &ctx, const std::string &path)
{
    Clock::time_point t0 = Clock::now();
    std::optional<trace::TraceReader> r;
    {
        Spans::Scope s(ctx.spans, "trace", "TraceReader::TraceReader");
        r.emplace(path);
    }
    ctx.layer["trace.open_s"] += secondsSince(t0);
    ctx.layer["trace.files"] += 1;
    ctx.metrics.set("trace.open_ms",
                    ctx.layer["trace.open_s"] * 1e3 / ctx.layer["trace.files"],
                    "ms");
    if (!r->ok()) {
        ctx.oracle.op(false);
        return;
    }
    Spans::Scope s(ctx.spans, "trace", "OpStream::next");
    std::uint64_t ops = 0;
    trace::TraceOp op;
    Clock::time_point t1 = Clock::now();
    for (ThreadId t = 0; t < r->config().appThreads; ++t) {
        trace::TraceReader::OpStream st = r->opStream(t);
        while (st.next(op))
            ++ops;
    }
    addRate(ctx, "trace.scan_ns_per_op", secondsSince(t1), ops);
    // Every journalled op must decode, and the reader must stay healthy.
    ctx.oracle.op(r->ok() && ops == r->totalOps());
    ctx.layer["trace.ops#"] += static_cast<double>(ops);
    ctx.metrics.set("trace.ops", ctx.layer["trace.ops#"], "count");
    if (r->formatVersion() != trace::kFormatVersionV2)
        return;
    ctx.layer["trace.v2ops#"] += static_cast<double>(ops);
    ctx.layer["trace.v2bytes#"] += static_cast<double>(r->fileBytes());
    ctx.metrics.set("trace.v2_bytes_per_op",
                    ctx.layer["trace.v2bytes#"] / ctx.layer["trace.v2ops#"],
                    "B");
}

} // namespace perfbench
