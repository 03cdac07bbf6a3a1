/**
 * @file
 * Microbenchmark of the trace subsystem hot paths: StreamCompressor
 * encode (model-only vs byte-emitting), RecordDecoder decode, full
 * record→file and file→replay round trips. Reports encode/decode
 * throughput in records/s and MB/s of payload, plus end-to-end replay
 * records/s (the lifeguard hot path with no application simulation —
 * the number the record-once/replay-many workflow buys), serial
 * same-lifeguard and TaintCheck->AddrCheck re-monitoring, the v2
 * journal scan split into its layers (CRC, LZ, block rebuild, op
 * parse) and the v2 chunk encode split into its layers (column build,
 * LZ, CRC), in ns per op.
 *
 * Scale with PARALOG_SCALE (records in the codec loops; default
 * 2000000), or pass --smoke for the seconds-long CTest tier2 run.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/lz.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/replay.hpp"
#include "trace/codec.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"
#include "trace/v2_block.hpp"

namespace {

using namespace paralog;
using Clock = std::chrono::steady_clock;

std::uint64_t gSink = 0;

double
perSecond(Clock::time_point t0, Clock::time_point t1, std::uint64_t ops)
{
    std::chrono::duration<double> d = t1 - t0;
    return d.count() > 0 ? static_cast<double>(ops) / d.count() : 0.0;
}

/** A realistic mixed stream: strided loads/stores, register ops, the
 *  occasional lock and malloc. */
std::vector<EventRecord>
makeStream(std::uint64_t n)
{
    std::vector<EventRecord> stream;
    stream.reserve(n);
    Rng rng(7);
    RecordId rid = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        EventRecord r;
        r.rid = rid++;
        switch (i % 8) {
          case 0:
          case 1:
          case 2:
            r.type = EventType::kLoad;
            r.addr = 0x0400'0000 + 8 * (i % 4096);
            r.size = 8;
            break;
          case 3:
          case 4:
            r.type = EventType::kStore;
            r.addr = 0x0410'0000 + 8 * (i % 4096);
            r.size = 8;
            break;
          case 5:
            r.type = EventType::kAlu;
            break;
          case 6:
            r.type = EventType::kLoad;
            r.addr = rng.next() & 0xFFFFF8; // predictor miss
            r.size = 4;
            if ((i & 31) == 0)
                r.mutableArcs().push_back(DepArc{1, i});
            break;
          default:
            r.type = EventType::kMovRR;
            break;
        }
        stream.push_back(std::move(r));
    }
    return stream;
}

void
benchCodec(std::uint64_t records)
{
    std::vector<EventRecord> stream = makeStream(records);

    // Size model only (the live non-recording capture path).
    {
        StreamCompressor c;
        auto t0 = Clock::now();
        for (const EventRecord &r : stream)
            gSink += c.encode(r);
        auto t1 = Clock::now();
        std::printf("model-only encode:  %8.2f Mrec/s\n",
                    perSecond(t0, t1, records) / 1e6);
    }

    // Byte-emitting encode + sideband (the recording path).
    std::vector<std::uint8_t> bytes;
    bytes.reserve(records * 4);
    std::vector<std::uint32_t> sizes;
    sizes.reserve(records);
    {
        StreamCompressor c;
        RecordId last_rid = 0;
        auto t0 = Clock::now();
        for (const EventRecord &r : stream) {
            trace::encodeSideband(r, last_rid, bytes);
            sizes.push_back(c.encode(r, &bytes));
        }
        auto t1 = Clock::now();
        double mb = static_cast<double>(bytes.size()) / 1e6;
        std::printf("encode (bytes):     %8.2f Mrec/s  %8.2f MB/s "
                    "(%.2f B/rec)\n",
                    perSecond(t0, t1, records) / 1e6,
                    perSecond(t0, t1, bytes.size()) / 1e6,
                    mb * 1e6 / static_cast<double>(records));
    }

    // Decode back.
    {
        trace::RecordDecoder dec;
        ByteCursor cur(bytes.data(), bytes.size());
        EventRecord r;
        auto t0 = Clock::now();
        for (std::uint32_t payload : sizes) {
            if (!dec.decode(cur, payload, r)) {
                std::fprintf(stderr, "decode failed\n");
                std::exit(1);
            }
            gSink += r.addr;
        }
        auto t1 = Clock::now();
        std::printf("decode:             %8.2f Mrec/s  %8.2f MB/s\n",
                    perSecond(t0, t1, records) / 1e6,
                    perSecond(t0, t1, bytes.size()) / 1e6);
    }
}

void
benchReplay(std::uint64_t scale)
{
    std::string path = "/tmp/paralog_micro_trace.trace";
    RunSpec spec;
    spec.workload = WorkloadKind::kLu;
    spec.lifeguard = LifeguardKind::kTaintCheck;
    spec.mode = MonitorMode::kParallel;
    spec.cores = 4;
    spec.opt.scale = scale;
    spec.recordPath = path;

    auto t0 = Clock::now();
    RunResult live = recordExperiment(spec);
    auto t1 = Clock::now();

    std::uint64_t records = 0;
    for (const auto &l : live.lifeguard)
        records += l.recordsProcessed;

    ReplayConfig rcfg;
    rcfg.path = path;
    auto t2 = Clock::now();
    ReplayPlatform rp(std::move(rcfg));
    RunResult replayed = rp.run();
    auto t3 = Clock::now();
    gSink += replayed.totalCycles;

    // Concurrent replay (--lg-threads): same analysis results through
    // the host-parallel engine. Reported as a comparison only — the
    // speedup depends entirely on host core count (a 1-core host runs
    // it slower than serial, since the producer/consumer threads just
    // time-slice), so nothing here asserts on it.
    rcfg = ReplayConfig{};
    rcfg.path = path;
    rcfg.lgThreads = 4;
    auto t4 = Clock::now();
    ReplayPlatform rpc(std::move(rcfg));
    RunResult concurrent = rpc.run();
    auto t5 = Clock::now();
    gSink += concurrent.totalCycles;

    // Cross-lifeguard re-monitoring: the journal re-filtered for
    // AddrCheck (the drop log and arc carry of ReplayCore), serial.
    rcfg = ReplayConfig{};
    rcfg.path = path;
    rcfg.lifeguardOverride = true;
    rcfg.lifeguard = LifeguardKind::kAddrCheck;
    auto t6 = Clock::now();
    ReplayPlatform rpx(std::move(rcfg));
    RunResult cross = rpx.run();
    auto t7 = Clock::now();
    std::uint64_t kept = 0;
    for (const auto &l : cross.lifeguard)
        kept += l.recordsProcessed;

    trace::TraceReader reader(path);
    std::printf("record (live run):  %8.2f Mrec/s  (%llu records, "
                "%llu journal ops)\n",
                perSecond(t0, t1, records) / 1e6,
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(reader.totalOps()));
    std::printf("replay (serial):    %8.2f Mrec/s  (bit-identical "
                "self-check passed)\n",
                perSecond(t2, t3, records) / 1e6);
    double serial_s = std::chrono::duration<double>(t3 - t2).count();
    double conc_s = std::chrono::duration<double>(t5 - t4).count();
    std::printf("replay (4 lg thr):  %8.2f Mrec/s  (footer self-check "
                "passed; %.2fx vs serial)\n",
                perSecond(t4, t5, records) / 1e6,
                conc_s > 0 ? serial_s / conc_s : 0.0);
    std::printf("replay TC->AC:      %8.2f Mrec/s  (serial, re-filtered: "
                "%llu of %llu records kept)\n",
                perSecond(t6, t7, records) / 1e6,
                static_cast<unsigned long long>(kept),
                static_cast<unsigned long long>(records));
    std::remove(path.c_str());
}

std::uint64_t
fileBytes(const std::string &path)
{
    trace::TraceReader reader(path);
    return reader.ok() ? reader.fileBytes() : 0;
}

/** Best-of-3 wall time of @p body, in seconds. */
template <typename Body>
double
bestOf3(Body body)
{
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clock::now();
        body();
        double s = std::chrono::duration<double>(Clock::now() - t0).count();
        best = rep == 0 ? s : std::min(best, s);
    }
    return best;
}

/**
 * Split the v2 journal scan at @p path into its layers, in ns per op:
 * chunk CRC, the LZ stage, column framing (parseOpsBlock minus its LZ
 * stage) and op parse (the whole scan minus the other three: the ops
 * are read straight from the columns). The scan opens a fresh reader
 * and drains every op stream; each layer runs over every ops-chunk
 * payload of the file. A second line gives the re-interleave into v1
 * op bytes (decodeOpsBlock minus parseOpsBlock), which only migration
 * pays. Best of 3 each.
 */
void
benchV2DecodeSplit(const std::string &path)
{
    std::uint64_t ops = 0;
    const double scan_s = bestOf3([&] {
        trace::TraceReader reader(path);
        trace::TraceOp op;
        ops = 0;
        for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
            auto stream = reader.opStream(t);
            while (stream.next(op))
                ++ops;
        }
    });

    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> file{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    std::vector<std::pair<std::size_t, std::uint32_t>> chunks;
    for (std::size_t off = trace::kHeaderBytes; off + 16 <= file.size();) {
        const std::uint32_t bytes = trace::get32le(&file[off + 8]);
        if (trace::get32le(&file[off]) == trace::kChunkOps)
            chunks.emplace_back(off + 16, bytes);
        off += 16 + std::size_t{bytes};
    }

    std::vector<std::uint8_t> out;
    trace::OpsBlock block;
    bool ok = true;
    const double crc_s = bestOf3([&] {
        for (const auto &[off, bytes] : chunks)
            gSink += trace::crc32(&file[off], bytes);
    });
    const double lz_s = bestOf3([&] {
        for (const auto &[off, bytes] : chunks) {
            ByteCursor c(&file[off], bytes);
            std::uint64_t v1_len = 0;
            ok = ok && c.getVarint(v1_len) &&
                 lzDecompress(c.pos, c.remaining(), out,
                              2 * static_cast<std::size_t>(v1_len) + 1024);
            gSink += out.size();
        }
    });
    const double frame_s = bestOf3([&] {
        for (const auto &[off, bytes] : chunks) {
            ok = ok && trace::parseOpsBlock(&file[off], bytes, out,
                                            16u << 20, block);
            gSink += block.opCount;
        }
    });
    const double decode_s = bestOf3([&] {
        for (const auto &[off, bytes] : chunks) {
            ok = ok && trace::decodeOpsBlock(&file[off], bytes, out,
                                             16u << 20);
            gSink += out.size();
        }
    });
    if (!ok || chunks.empty()) {
        std::fprintf(stderr, "v2 decode split: chunk decode failed\n");
        std::exit(1);
    }
    const double per_op = ops > 0 ? 1e9 / static_cast<double>(ops) : 0.0;
    const double framing_s = std::max(0.0, frame_s - lz_s);
    const double parse_s = std::max(0.0, scan_s - crc_s - frame_s);
    const double rebuild_s = std::max(0.0, decode_s - frame_s);
    std::printf("v2 decode split:     crc %.1f  lz %.1f  framing %.1f  "
                "parse %.1f ns/op  (%zu chunks)\n",
                crc_s * per_op, lz_s * per_op, framing_s * per_op,
                parse_s * per_op, chunks.size());
    std::printf("v2 rebuild:          %.1f ns/op  (re-interleave into v1 "
                "op bytes; migration only)\n",
                rebuild_s * per_op);
}

/**
 * Split the v2 ops-chunk encode of the journal at @p path into its
 * layers, in ns per op: column build (OpColumns filled op by op, as the
 * recorder fills them, plus the column-section layout), the LZ stage and
 * the chunk CRC. The ops come from the file's own chunks, pre-split
 * into opcode, deltas and body, so only the encoder is timed; the
 * re-encoded payloads must equal the file's. Best of 3 each.
 */
void
benchV2EncodeSplit(const std::string &path)
{
    struct Op
    {
        std::uint8_t opcode;
        std::uint64_t dGseq, dCycle, dLgStep;
        const std::uint8_t *body;
        std::size_t bodyLen;
    };
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> file{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    std::vector<std::vector<std::uint8_t>> payloads, v1s;
    for (std::size_t off = trace::kHeaderBytes; off + 16 <= file.size();) {
        const std::uint32_t bytes = trace::get32le(&file[off + 8]);
        if (trace::get32le(&file[off]) == trace::kChunkOps)
            payloads.emplace_back(&file[off + 16], &file[off + 16] + bytes);
        off += 16 + std::size_t{bytes};
    }
    v1s.resize(payloads.size());
    std::vector<std::vector<Op>> chunks(payloads.size());
    std::uint64_t ops = 0;
    bool ok = !payloads.empty();
    for (std::size_t i = 0; ok && i < payloads.size(); ++i) {
        ok = trace::decodeOpsBlock(payloads[i].data(), payloads[i].size(),
                                   v1s[i], 16u << 20);
        const std::uint8_t *p = v1s[i].data();
        const std::uint8_t *end = p + v1s[i].size();
        while (ok && p < end) {
            const std::uint8_t *start = p;
            std::size_t prelude = 0;
            if (!(ok = trace::scanOneOp(p, end, prelude)))
                break;
            ByteCursor c(start + 1, prelude - 1);
            Op op{start[0], 0, 0, 0, start + prelude,
                  static_cast<std::size_t>(p - start) - prelude};
            ok = ok && c.getVarint(op.dGseq) && c.getVarint(op.dCycle) &&
                 c.getVarint(op.dLgStep);
            chunks[i].push_back(op);
        }
        ops += chunks[i].size();
    }

    std::vector<trace::OpColumns> cols(chunks.size());
    const double fill_s = bestOf3([&] {
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            trace::OpColumns &c = cols[i];
            c.clear();
            for (const Op &op : chunks[i]) {
                auto &body =
                    c.beginOp(op.opcode, op.dGseq, op.dCycle, op.dLgStep);
                body.insert(body.end(), op.body, op.body + op.bodyLen);
                c.endOp();
            }
        }
    });
    std::vector<std::vector<std::uint8_t>> sections(chunks.size());
    std::vector<std::uint8_t> out;
    const double encode_s = bestOf3([&] {
        for (std::size_t i = 0; i < cols.size(); ++i) {
            trace::encodeV2Payload(cols[i], out);
            ok = ok && out == payloads[i];
        }
    });
    for (std::size_t i = 0; ok && i < payloads.size(); ++i) {
        ByteCursor c(payloads[i].data(), payloads[i].size());
        std::uint64_t v1_len = 0;
        ok = c.getVarint(v1_len) &&
             lzDecompress(c.pos, c.remaining(), sections[i],
                          2 * static_cast<std::size_t>(v1_len) + 1024);
    }
    const double lz_s = bestOf3([&] {
        for (const auto &sec : sections) {
            out.clear();
            lzCompress(sec.data(), sec.size(), out);
            gSink += out.size();
        }
    });
    const double crc_s = bestOf3([&] {
        for (const auto &pl : payloads)
            gSink += trace::crc32(pl.data(), pl.size());
    });
    if (!ok) {
        std::fprintf(stderr, "v2 encode split: re-encoded chunks differ "
                             "from the recording\n");
        std::exit(1);
    }
    const double per_op = ops > 0 ? 1e9 / static_cast<double>(ops) : 0.0;
    const double build_s = fill_s + std::max(0.0, encode_s - lz_s);
    std::printf("v2 encode split:     columns %.1f  lz %.1f  crc %.1f "
                "ns/op  (%zu chunks)\n",
                build_s * per_op, lz_s * per_op, crc_s * per_op,
                payloads.size());
}

/** v1-vs-v2 container comparison: file size, chunk decode throughput
 *  (serial and parallel), and mmap replay vs re-running the simulation.
 *  The replays are fingerprint-checked against each other and against
 *  the live run — a divergence is a hard failure, not a report line. */
void
benchTraceV2(std::uint64_t scale)
{
    std::string v1_path = "/tmp/paralog_micro_trace_v1.trace";
    std::string v2_path = "/tmp/paralog_micro_trace_v2.trace";
    RunSpec spec;
    spec.workload = WorkloadKind::kLu;
    spec.lifeguard = LifeguardKind::kTaintCheck;
    spec.mode = MonitorMode::kParallel;
    spec.cores = 4;
    spec.opt.scale = scale;
    spec.recordPath = v1_path;
    spec.recordFormat = 1;

    auto t0 = Clock::now();
    RunResult live = recordExperiment(spec);
    auto t1 = Clock::now();
    double live_s = std::chrono::duration<double>(t1 - t0).count();

    spec.recordPath = v2_path;
    spec.recordFormat = 2;
    recordExperiment(spec);

    std::uint64_t s1 = fileBytes(v1_path), s2 = fileBytes(v2_path);
    double ratio = s2 > 0 ? static_cast<double>(s1) /
                                static_cast<double>(s2)
                          : 0.0;
    std::printf("size: v1 %llu B, v2 %llu B  (%.2fx smaller)  %s\n",
                static_cast<unsigned long long>(s1),
                static_cast<unsigned long long>(s2), ratio,
                ratio >= 4.0 ? "[>=4x: ok]" : "[>=4x: MISS]");

    // Journal scan: drain every op stream (the CRC, LZ stage and column
    // framing of every chunk, then each op read from the columns). This
    // is the part of replay the mmap container governs — the ">=5x vs
    // live" target applies here.
    // (Full replay below also re-runs the lifeguard analysis, which no
    // container format can skip.)
    auto d0 = Clock::now();
    trace::TraceReader reader(v2_path);
    trace::TraceOp op;
    std::uint64_t n = 0;
    for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
        auto stream = reader.opStream(t);
        while (stream.next(op))
            ++n;
    }
    auto d1 = Clock::now();
    if (!reader.ok()) {
        std::fprintf(stderr, "v2 decode failed: %s\n",
                     reader.error().c_str());
        std::exit(1);
    }
    const double scan_s = std::chrono::duration<double>(d1 - d0).count();
    std::printf("v2 scan:             %8.2f Mop/s  (%llu ops, mmap %s)\n",
                perSecond(d0, d1, n) / 1e6,
                static_cast<unsigned long long>(n),
                reader.mapped() ? "yes" : "no");
    gSink += n;
    std::printf("v2 scan vs live:     %8.2fx faster  %s\n",
                scan_s > 0 ? live_s / scan_s : 0.0,
                scan_s > 0 && live_s / scan_s >= 5.0 ? "[>=5x: ok]"
                                                     : "[>=5x: MISS]");
    benchV2DecodeSplit(v2_path);
    benchV2EncodeSplit(v2_path);

    // Replay from the mapped v2 container vs re-running the simulation,
    // with the v1 replay alongside; all three must agree bit-for-bit.
    RunResult from_v1, from_v2;
    double v2_s = 0;
    for (int fmt : {1, 2}) {
        ReplayConfig rcfg;
        rcfg.path = fmt == 1 ? v1_path : v2_path;
        auto r0 = Clock::now();
        ReplayPlatform rp(std::move(rcfg));
        RunResult res = rp.run();
        auto r1 = Clock::now();
        double secs = std::chrono::duration<double>(r1 - r0).count();
        if (fmt == 1)
            from_v1 = res;
        else {
            from_v2 = res;
            v2_s = secs;
        }
        std::printf("replay v%d (serial): %8.3f s\n", fmt, secs);
    }
    std::printf("live sim:            %8.3f s  (full v2 replay %.2fx "
                "faster; replay re-runs the analysis, so this ratio "
                "tracks the app-sim share)\n",
                live_s, v2_s > 0 ? live_s / v2_s : 0.0);

    if (from_v1.shadowFingerprint != live.shadowFingerprint ||
        from_v2.shadowFingerprint != live.shadowFingerprint ||
        from_v1.violationFingerprint != live.violationFingerprint ||
        from_v2.violationFingerprint != live.violationFingerprint ||
        from_v1.totalCycles != live.totalCycles ||
        from_v2.totalCycles != live.totalCycles) {
        std::fprintf(stderr,
                     "v1/v2 replay fingerprints diverged from live\n");
        std::exit(1);
    }
    std::printf("fingerprints: live == v1 replay == v2 replay "
                "(0x%016llx)\n",
                static_cast<unsigned long long>(live.shadowFingerprint));
    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    std::uint64_t records =
        ExperimentOptions::envScale(smoke ? 200'000 : 2'000'000);
    std::uint64_t scale = smoke ? 2'000 : 20'000;

    setQuiet(true);
    std::printf("=== micro_trace: codec (%llu records) ===\n",
                static_cast<unsigned long long>(records));
    benchCodec(records);
    std::printf("=== micro_trace: record/replay (lu, taintcheck, "
                "4 cores, scale %llu) ===\n",
                static_cast<unsigned long long>(scale));
    benchReplay(scale);
    std::printf("=== micro_trace: trace container v1 vs v2 (lu, "
                "taintcheck, 4 cores, scale %llu) ===\n",
                static_cast<unsigned long long>(scale));
    benchTraceV2(scale);
    if (gSink == 42)
        std::printf("\n"); // defeat dead-code elimination
    return 0;
}
