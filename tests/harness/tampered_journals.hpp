/**
 * @file
 * Recordings whose journal is tampered with at record time while the
 * live run, the footer and every chunk CRC stay valid: the inputs the
 * replay watchdog and the journal reader must turn into fast, named
 * failures (offline and inside paralogd). Also committed recordings
 * whose header is rewritten with a consistent config fingerprint (the
 * inputs replay must accept unchanged, or refuse by name), and
 * recordings copied behind an edited footer (the inputs the footer
 * self-check must refuse).
 */

#ifndef PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP
#define PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/paralog_test.hpp"
#include "trace/format.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace paralog::test {

/**
 * Record lu/TaintCheck/2 cores/scale 300 under @p mm to @p path through
 * a @p Recorder (a trace::TraceRecorder subclass), the way
 * recordExperiment records it, in container @p format.
 */
template <typename Recorder>
void
recordLuJournal(const std::string &path, MemoryModel mm,
                std::uint32_t format = trace::kFormatVersion)
{
    ExperimentOptions o = makeOptions(300);
    o.memoryModel = mm;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                   MonitorMode::kParallel, 2, o);
    Recorder recorder(path,
                      trace::TraceConfig::forRun(cfg.sim, cfg.workload,
                                                 cfg.lifeguard, cfg.scale),
                      format);
    ASSERT_TRUE(recorder.ok()) << recorder.error();
    cfg.recorder = &recorder;
    Platform p(cfg);
    RunResult result = p.run();
    result.shadowFingerprint =
        heapGlobalsFingerprint(p.lifeguard().shadow());
    ASSERT_TRUE(recorder.finalize(result)) << recorder.error();
}

/** Records normally, except that the journal's first retire op is
 *  stamped 2^40 cycles in, far past the end of the run (ops after it
 *  return to their true cycles). */
class FutureStampRecorder : public trace::TraceRecorder
{
  public:
    using TraceRecorder::TraceRecorder;

    void
    onRetire(ThreadId tid, RecordId retired) override
    {
        if (!stamped_) {
            stamped_ = true;
            setNow(Cycle{1} << 40);
        }
        TraceRecorder::onRetire(tid, retired);
    }

  private:
    bool stamped_ = false;
};

/** Records normally, except that thread 0's tenth append is journalled
 *  with a rid one below the rid of the append before it: the encoder
 *  writes that rid delta as a u64 that wraps past 2^64. */
class DecreasingRidRecorder : public trace::TraceRecorder
{
  public:
    using TraceRecorder::TraceRecorder;

    void
    onAppend(ThreadId tid, const EventRecord &rec,
             std::uint32_t charged_bytes,
             const std::vector<std::uint8_t> &payload) override
    {
        if (tid != 0 || ++appends_ != 10) {
            if (tid == 0)
                prevRid_ = rec.rid;
            TraceRecorder::onAppend(tid, rec, charged_bytes, payload);
            return;
        }
        EventRecord back = rec;
        back.rid = prevRid_ - 1;
        TraceRecorder::onAppend(tid, back, charged_bytes, payload);
    }

  private:
    std::uint32_t appends_ = 0;
    RecordId prevRid_ = 0;
};

/** Path of the committed corpus recording @p stem (e.g.
 *  "addrcheck_sc_v2"), or "" when PARALOG_CORPUS is unset (outside
 *  CTest). */
inline std::string
corpusTrace(const std::string &stem)
{
    const char *dir = std::getenv("PARALOG_CORPUS");
    return dir ? std::string(dir) + "/" + stem + ".trace" : std::string();
}

/**
 * Copy the recording at @p src to @p dst after passing its 96-byte
 * header to @p edit (a callable taking std::uint8_t *), with the config
 * fingerprint at offset 16 (FNV-1a over bytes 24..63) recomputed so the
 * edited header still validates as a header: what another writer of
 * the format may have stored there.
 */
template <typename Edit>
void
copyWithHeader(const std::string &src, const std::string &dst, Edit edit)
{
    std::ifstream in(src, std::ios::binary);
    ASSERT_TRUE(in) << src;
    std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
    ASSERT_GE(bytes.size(), trace::kHeaderBytes) << src;
    edit(bytes.data());
    trace::put64le(bytes.data() + 16, trace::fnv1a(bytes.data() + 24, 40));
    std::ofstream out(dst, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out) << dst;
}

/**
 * Copy the recording at @p src to @p dst the way trace::migrateTrace
 * does, in the same container format, after passing its footer through
 * @p edit: the same journal, every chunk CRC valid, behind a footer
 * that TraceWriter::finalize re-encodes from the edited copy.
 */
template <typename Edit>
void
copyWithFooter(const std::string &src, const std::string &dst, Edit edit)
{
    trace::TraceReader reader(src);
    ASSERT_TRUE(reader.ok()) << src << ": " << reader.error();
    trace::TraceWriter writer(dst, reader.config(), reader.formatVersion());
    writer.opCount = reader.footer().opCount;
    writer.recordCount = reader.footer().recordCount;
    writer.setTotals(reader.totalOps(), reader.totalRecords());
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        const std::uint32_t kind = reader.chunkKind(i);
        if (kind != trace::kChunkOps && kind != trace::kChunkMetaLatency)
            continue;
        ASSERT_TRUE(reader.chunkPayload(i, payload)) << reader.error();
        if (kind == trace::kChunkOps)
            writer.writeOpsChunk(reader.chunkTid(i), payload);
        else
            writer.writeLatencyChunk(reader.chunkTid(i), payload);
    }
    trace::TraceFooter footer = reader.footer();
    edit(footer);
    ASSERT_TRUE(writer.finalize(footer)) << writer.error();
}

} // namespace paralog::test

#endif // PARALOG_TESTS_HARNESS_TAMPERED_JOURNALS_HPP
