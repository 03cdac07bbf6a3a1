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
 * point straight into the mapping. A v2 ops chunk is decompressed when
 * a stream reaches it, into that stream's one reused section buffer,
 * and its ops are read straight from the six columns (v2_block.hpp);
 * no v1 bytes are rebuilt. Only chunkPayload (the path migration
 * takes) re-interleaves a v2 chunk into v1 op bytes. Everything
 * above the op stream is format-agnostic.
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
#include "trace/v2_block.hpp"

namespace paralog::trace {

/**
 * One decoded journal op. `op`, `gseq`, `cycle` and `lgStep` are set
 * for every op; the other fields belong to the op kinds named beside
 * them (see format.hpp). OpStream::next() writes only the fields of
 * the op it returns: after it, fields owned by other op kinds are
 * unspecified (they may hold an earlier op's values), so a consumer
 * reads only its op kind's fields. The streams reuse one TraceOp per
 * caller across the whole journal, which keeps the nested vectors'
 * (arcs, ca.arrivalRid) capacity.
 */
struct TraceOp
{
    OpCode op = OpCode::kRetire;
    std::uint64_t gseq = 0;  ///< global order across threads
    Cycle cycle = 0;         ///< simulated time it was applied
    std::uint64_t lgStep = 0;///< lifeguard steps completed before it

    RecordId retired = 0;          // kRetire
    EventRecord rec;               // kAppend / kAppendCa
    std::uint32_t chargedBytes = 0;
    RecordId rid = 0;              // kAttachArcs / kAnnotateConsume /
                                   // kInsertProduce
    std::vector<DepArc> arcs;      // kAttachArcs
    VersionTag version;            // kAnnotateConsume / kInsertProduce
    Addr addr = 0;                 // kInsertProduce
    std::uint8_t size = 0;
    RecordId visLimit = kInvalidRecord; // kVisLimit
    CaBroadcast ca;                // kCaBroadcast
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
     *
     * A v2 chunk is checked as it is read: its framing when the stream
     * loads it (parseOpsBlock), each op's columns and body when next()
     * reaches the op, and that every column is used up when the chunk's
     * last op has been read. A bad op therefore fails the stream when
     * it is reached, after the chunk's earlier ops were returned.
     */
    class OpStream
    {
      public:
        bool next(TraceOp &out);

      private:
        friend class TraceReader;
        /** Load the thread's next ops chunk; false at end of stream or
         *  on failure (the reader is failed then). */
        bool loadChunk();

        TraceReader *reader_ = nullptr;
        ThreadId tid_ = 0;
        bool columnar_ = false;    ///< v2: read ops from block_
        std::size_t chunkIdx_ = 0; ///< next chunk (per-thread index)
        ByteCursor cur_;           ///< v1: the chunk's op bytes
        std::vector<std::uint8_t> section_; ///< v2: decompressed chunk
        OpsBlock block_;           ///< v2: column cursors into section_
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
    /** Point @p cur at chunk @p i's bytes in the file (a v1 ops or a
     *  latency chunk), CRC-checking it first. */
    bool cursorForChunk(std::size_t i, ByteCursor &cur);

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
