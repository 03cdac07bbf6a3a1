/**
 * @file
 * Reader for `paralog-trace-v1` and `paralog-trace-v2` files.
 *
 * The whole file is mapped read-only (mmap; a heap read is the
 * fallback when mapping is unavailable) and open() validates the
 * header, indexes every chunk with one pass over the mapping, and
 * parses the footer. Chunk payload CRCs are checked lazily on first
 * access, preserving the streaming reader's corruption semantics:
 * opening a trace with a flipped payload byte succeeds, consuming the
 * poisoned chunk fails the reader.
 *
 * v1 ops chunks and latency chunks are consumed zero-copy — cursors
 * point straight into the mapping. v2 ops chunks decode lazily, one
 * chunk at a time as a stream reaches it, back into exact v1 op bytes
 * (v2_block.hpp). Everything above the chunk layer is format-agnostic.
 *
 * Files without a footer (crashed recordings) are rejected, as is a
 * parallel-mode footer whose lifeguard stats list does not match the
 * recorded thread count (a structurally valid but self-inconsistent
 * footer would otherwise surface as an assertion deep inside replay).
 */

#ifndef PARALOG_TRACE_TRACE_READER_HPP
#define PARALOG_TRACE_TRACE_READER_HPP

#include <memory>
#include <string>
#include <vector>

#include "deliver/ca_manager.hpp"
#include "trace/codec.hpp"
#include "trace/format.hpp"

namespace paralog::trace {

/** One decoded journal op. Which fields are meaningful depends on
 *  `op` (see format.hpp). */
struct TraceOp
{
    OpCode op = OpCode::kRetire;
    std::uint64_t gseq = 0;  ///< global order across threads
    Cycle cycle = 0;         ///< simulated time it was applied
    std::uint64_t lgStep = 0;///< lifeguard steps completed before it

    RecordId retired = 0;          // kRetire
    EventRecord rec;               // kAppend / kAppendCa
    std::uint32_t chargedBytes = 0;
    RecordId rid = 0;              // kAttachArcs / kAnnotateConsume
    std::vector<DepArc> arcs;      // kAttachArcs
    VersionTag version;            // kAnnotateConsume / kInsertProduce
    Addr addr = 0;                 // kInsertProduce
    std::uint8_t size = 0;
    RecordId visLimit = kInvalidRecord; // kVisLimit
    CaBroadcast ca;                // kCaBroadcast

    /** Back to the default-constructed state, keeping the capacity of
     *  the nested vectors (arcs, ca.arrivalRid) — the op streams reuse
     *  one TraceOp per caller across the whole journal, and
     *  `*this = TraceOp{}` would free them every op. */
    void
    reset()
    {
        op = OpCode::kRetire;
        gseq = 0;
        cycle = 0;
        lgStep = 0;
        retired = 0;
        rec.reset();
        chargedBytes = 0;
        rid = 0;
        arcs.clear();
        version = VersionTag{};
        addr = 0;
        size = 0;
        visLimit = kInvalidRecord;
        ca.seq = 0;
        ca.issuer = kInvalidThread;
        ca.issuerEventRid = kInvalidRecord;
        ca.kind = HighLevelKind::kMallocEnd;
        ca.range = AddrRange{};
        ca.arrivalRid.clear();
    }
};

class TraceReader
{
  public:
    struct Options
    {
        /** Map the file instead of reading it onto the heap. The heap
         *  path exists for platforms/filesystems where mmap fails and
         *  so tests can cover both. */
        bool preferMmap = true;
    };

    explicit TraceReader(const std::string &path)
        : TraceReader(path, Options{})
    {
    }
    TraceReader(const std::string &path, const Options &opts);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    const TraceConfig &config() const { return cfg_; }
    const TraceFooter &footer() const { return footer_; }
    std::uint64_t configFingerprint() const { return configFingerprint_; }
    std::uint64_t totalOps() const { return totalOps_; }
    std::uint64_t totalRecords() const { return totalRecords_; }
    /** kFormatVersion or kFormatVersionV2. */
    std::uint32_t formatVersion() const { return formatVersion_; }
    /** True when the file is mmap()ed (false on the heap fallback). */
    bool mapped() const { return map_ != nullptr; }
    std::uint64_t fileBytes() const { return size_; }

    // ---- chunk inventory (file order) for migration and the trace
    // inspector; payload access CRC-checks and, for v2 ops chunks,
    // decodes back to v1 op bytes. ----
    std::size_t chunkCount() const { return chunks_.size(); }
    std::uint32_t chunkKind(std::size_t i) const { return chunks_[i].kind; }
    std::uint32_t chunkTid(std::size_t i) const { return chunks_[i].tid; }
    std::uint32_t chunkBytes(std::size_t i) const
    {
        return chunks_[i].bytes;
    }
    bool chunkPayload(std::size_t i, std::vector<std::uint8_t> &out);

    /**
     * Sequential cursor over one thread's journal ops. Loads (and
     * CRC-checks) one chunk at a time. next() returns false at
     * end-of-stream; corruption fails the owning reader (ok() turns
     * false) and ends every stream.
     */
    class OpStream
    {
      public:
        bool next(TraceOp &out);

      private:
        friend class TraceReader;
        TraceReader *reader_ = nullptr;
        ThreadId tid_ = 0;
        std::size_t chunkIdx_ = 0; ///< next chunk (per-thread index)
        std::vector<std::uint8_t> buf_; ///< lazy v2 decode target
        ByteCursor cur_;
        RecordDecoder decoder_;
        std::uint64_t gseq_ = 0;
        Cycle cycle_ = 0;
        std::uint64_t lgStep_ = 0;
        RecordId retired_ = 0;
    };

    /** Cursor over one lifeguard thread's metadata-latency sideband. */
    class LatencyStream
    {
      public:
        /** False at end of stream. */
        bool next(Cycle &latency);
        bool exhausted() const;

      private:
        friend class TraceReader;
        TraceReader *reader_ = nullptr;
        ThreadId tid_ = 0;
        std::size_t chunkIdx_ = 0;
        std::vector<std::uint8_t> buf_; ///< unused (latency is never
                                        ///< re-coded); keeps the chunk
                                        ///< loader interface uniform
        ByteCursor cur_;
        Cycle runLatency_ = 0;
        std::uint64_t runLeft_ = 0;
    };

    OpStream opStream(ThreadId tid);
    LatencyStream latencyStream(ThreadId tid);

  private:
    struct ChunkRef
    {
        std::uint64_t offset = 0; ///< payload offset in the mapping
        std::uint32_t bytes = 0;
        std::uint32_t crc = 0;
        std::uint32_t kind = 0;
        std::uint32_t tid = 0;
    };

    void fail(const std::string &why);
    void openSpan(const std::string &path, const Options &opts);
    void parseHeader();
    void indexChunks();
    void parseFooter(const std::vector<std::uint8_t> &payload);
    /** CRC-check chunk @p i; false (reader failed) on mismatch. */
    bool checkChunk(std::size_t i);
    /** Point @p cur at chunk @p i's v1 op/latency bytes, CRC-checking
     *  and (v2 ops) decoding as needed. @p buf backs lazy decodes. */
    bool cursorForChunk(std::size_t i, std::vector<std::uint8_t> &buf,
                       ByteCursor &cur);

    bool ok_ = true;
    std::string error_;
    TraceConfig cfg_;
    TraceFooter footer_;
    std::uint32_t formatVersion_ = kFormatVersion;
    std::uint64_t configFingerprint_ = 0;
    std::uint64_t totalOps_ = 0;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t footerOffset_ = 0;

    // The file span: mmap'ed (map_ owns it) or heap-read (fileBuf_).
    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
    void *map_ = nullptr;
    std::size_t mapLen_ = 0;
    std::vector<std::uint8_t> fileBuf_;

    std::vector<ChunkRef> chunks_;        ///< every chunk, file order
    std::vector<char> chunkChecked_;      ///< CRC verified already
    std::vector<std::vector<std::size_t>> opChunks_;  ///< per-thread
    std::vector<std::vector<std::size_t>> latChunks_; ///< indices
};

} // namespace paralog::trace

#endif // PARALOG_TRACE_TRACE_READER_HPP
