/**
 * @file
 * Streaming writer for `paralog-trace-v1` and `paralog-trace-v2` files
 * (format.hpp). Journal ops are buffered per thread, already split into
 * the v2 columns (OpColumns, v2_block.hpp), and flushed as CRC-protected
 * chunks once they reach the target chunk size counted as v1 bytes, so
 * memory stays bounded while recording arbitrarily long runs;
 * finalize() flushes the tails, writes the footer chunk and rewrites
 * the header with the final counts and config fingerprint. A file
 * without a footer (crashed recording) is rejected by the reader.
 *
 * The two formats differ only in the ops-chunk payload: a flush lays
 * the columns out and compresses them (v2), or interleaves them back
 * into v1 op bytes (v1). Chunk boundaries, latency and footer encodings
 * are shared, so a v1 and a v2 recording of the same run have identical
 * chunk sequences.
 */

#ifndef PARALOG_TRACE_TRACE_WRITER_HPP
#define PARALOG_TRACE_TRACE_WRITER_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/v2_block.hpp"

namespace paralog::trace {

class TraceWriter
{
  public:
    /** @p format is kFormatVersion (v1, the default) or
     *  kFormatVersionV2. */
    TraceWriter(const std::string &path, const TraceConfig &cfg,
                std::uint32_t format = kFormatVersion);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    /** The header config is rewritten at finalize; the recorder patches
     *  fields it only learns after construction (the event filter). */
    TraceConfig &config() { return cfg_; }

    /** Thread @p tid's ops chunk in the making: the recorder adds an op
     *  with OpColumns::beginOp and its body bytes, then calls endOp. */
    OpColumns &ops(ThreadId tid) { return ops_[tid]; }

    /** Close the op begun on ops(@p tid): count it, and flush the chunk
     *  once its ops reach kChunkTargetBytes as v1 bytes. */
    void endOp(ThreadId tid, bool is_record);

    /** Append one metadata-access latency for lifeguard thread @p tid
     *  (run-length encoded). */
    void appendMetaLatency(ThreadId tid, Cycle latency);

    // ---- migration support (trace/migrate.cpp): re-emit chunks from
    // an existing recording while preserving its chunk boundaries. ----

    /** Emit @p v1_ops (whole v1 op bytes) as exactly one ops chunk,
     *  bypassing the per-thread columns (which must be empty). */
    void writeOpsChunk(ThreadId tid,
                       const std::vector<std::uint8_t> &v1_ops);

    /** Emit one latency chunk verbatim. */
    void writeLatencyChunk(ThreadId tid,
                           const std::vector<std::uint8_t> &payload);

    /** Override the header totals (migration copies them from the
     *  source header instead of counting ops via endOp). */
    void
    setTotals(std::uint64_t total_ops, std::uint64_t total_records)
    {
        totalOps_ = total_ops;
        totalRecords_ = total_records;
    }

    /**
     * Flush everything, write the footer chunk and rewrite the header.
     * Returns ok(). The writer is unusable afterwards.
     */
    bool finalize(const TraceFooter &footer);

  private:
    void fail(const std::string &why);
    void writeHeader();
    void writeChunk(std::uint32_t kind, std::uint32_t tid,
                    const std::vector<std::uint8_t> &payload);
    void flushOps(ThreadId tid);
    void flushLatency(ThreadId tid);
    void flushLatencyRun(ThreadId tid);

    struct LatencyRun
    {
        Cycle latency = 0;
        std::uint64_t count = 0;
    };

    std::FILE *file_ = nullptr;
    TraceConfig cfg_;
    std::uint32_t format_ = kFormatVersion;
    std::string path_;    ///< final name, created only by finalize()
    std::string tmpPath_; ///< path_ + ".tmp": where writing happens
    bool ok_ = true;
    bool finalized_ = false;
    std::string error_;
    std::vector<OpColumns> ops_;                     ///< per app thread
    std::vector<std::vector<std::uint8_t>> latBuf_;  ///< per lg thread
    std::vector<std::uint8_t> payload_; ///< an encoded ops chunk
    std::vector<LatencyRun> latRun_;
    std::uint64_t totalOps_ = 0;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t footerOffset_ = 0;

  public:
    /// Op/record tallies for the footer (owned here so the recorder
    /// does not duplicate the bookkeeping).
    std::vector<std::uint64_t> opCount;
    std::vector<std::uint64_t> recordCount;
};

} // namespace paralog::trace

#endif // PARALOG_TRACE_TRACE_WRITER_HPP
