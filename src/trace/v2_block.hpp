/**
 * @file
 * The `paralog-trace-v2` ops-chunk payload: a compressed columnar
 * re-blocking of a span of v1 journal op bytes.
 *
 * The v1 op stream interleaves fields with very different statistics —
 * opcodes (a handful of values, long runs), per-thread gseq/cycle/
 * lgStep delta varints (small, highly repetitive), and op bodies
 * (sideband + compressed payload, structurally repetitive). v2 splits
 * one chunk's ops into six column streams so those statistics line up
 * as long exact byte repeats, then runs the whole column section
 * through the LZ coder (common/lz.hpp):
 *
 *   payload = varint v1Len, lz(columnSection)
 *   columnSection = varint opCount,
 *                   6 x { varint colLen, colLen bytes }
 *   columns: 0 opcode bytes          (1 per op)
 *            1 d_gseq varints        (copied verbatim)
 *            2 d_cycle varints
 *            3 d_lgStep varints
 *            4 body length varints   (1 per op)
 *            5 body bytes            (concatenated verbatim)
 *
 * Varint spans are never re-coded: the columns hold exactly the v1
 * bytes (their lengths, body lengths aside, sum to v1Len), so
 * v1->v2->v1 migration is byte-identical.
 *
 * Two consumers read a chunk. Replay (TraceReader::OpStream) frames
 * the column section with parseOpsBlock and reads each op straight
 * from the columns, checking each op as it reaches it; no v1 copy is
 * made. Only TraceReader::chunkPayload (the path migration takes)
 * re-interleaves the columns into v1 op bytes, with decodeOpsBlock:
 * the same framing followed by the interleave.
 *
 * The recorder writes each op straight into these columns (OpColumns);
 * a chunk flush then either lays them out as the column section (v2)
 * or interleaves them back into v1 op bytes (v1), with the same loop
 * decodeOpsBlock uses. Only migration starts from v1 bytes: it splits
 * them into columns with a structural scanner for the v1 op grammar
 * (recorder.cpp is the source of truth; the scanner only walks field
 * sizes, it decodes nothing) and calls the same encoder.
 */

#ifndef PARALOG_TRACE_V2_BLOCK_HPP
#define PARALOG_TRACE_V2_BLOCK_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/varint.hpp"

namespace paralog::trace {

/** The column streams, in section order. */
enum OpColumn : std::size_t
{
    kColOpcode, kColGseq, kColCycle, kColLgStep, kColBodyLen, kColBody,
    kColumnCount
};

/**
 * One ops chunk in the making, split into the six columns. An op is
 * added with beginOp(), body bytes appended to the column it returns,
 * and endOp(). v1Bytes is the size the same ops take as v1 bytes
 * (every column but the body lengths): the writer's chunk-size rule
 * counts it, so v1 and v2 recordings of a run split into the same
 * chunks.
 */
struct OpColumns
{
    std::array<std::vector<std::uint8_t>, kColumnCount> col;
    std::uint64_t ops = 0;
    std::size_t v1Bytes = 0;

    /** Start an op: its opcode and (gseq, cycle, lifeguard-step)
     *  deltas. Returns the body column for the op's body bytes. */
    std::vector<std::uint8_t> &
    beginOp(std::uint8_t opcode, std::uint64_t d_gseq, std::uint64_t d_cycle,
            std::uint64_t d_lg_step)
    {
        col[kColOpcode].push_back(opcode);
        v1Bytes += 1 + putVarint(col[kColGseq], d_gseq) +
                   putVarint(col[kColCycle], d_cycle) +
                   putVarint(col[kColLgStep], d_lg_step);
        bodyStart_ = col[kColBody].size();
        return col[kColBody];
    }

    /** Close the op begun last: record its body length. */
    void
    endOp()
    {
        const std::size_t body = col[kColBody].size() - bodyStart_;
        putVarint(col[kColBodyLen], body);
        v1Bytes += body;
        ++ops;
    }

    void
    clear()
    {
        for (auto &c : col)
            c.clear();
        ops = 0;
        v1Bytes = 0;
    }

  private:
    std::size_t bodyStart_ = 0;
};

/**
 * Structurally scan one whole v1 op at @p c (see recorder.cpp for the
 * grammar), advancing the cursor past it. Returns false on malformed
 * input, leaving the cursor wherever the scan stopped. On success
 * @p prelude_end receives the offset (relative to the op start) of the
 * first body byte.
 */
bool scanOneOp(const std::uint8_t *&pos, const std::uint8_t *end,
               std::size_t &prelude_end);

/** The v2 ops-chunk payload of @p c (replacing @p out's contents). */
void encodeV2Payload(const OpColumns &c, std::vector<std::uint8_t> &out);

/** The v1 op bytes of @p c (replacing @p out's contents). Returns
 *  false if the columns do not interleave into exactly v1Bytes. */
bool encodeV1Payload(const OpColumns &c, std::vector<std::uint8_t> &out);

/**
 * Encode @p n bytes of whole v1 ops at @p v1 into a v2 ops-chunk
 * payload (replacing @p out's contents): the scanner splits them into
 * OpColumns, copying every field's bytes verbatim, and encodeV2Payload
 * lays them out. Returns false if the input does not scan as a
 * sequence of complete v1 ops (@p out is left empty then).
 */
bool encodeOpsBlock(const std::uint8_t *v1, std::size_t n,
                    std::vector<std::uint8_t> &out);

/** One v2 ops chunk's column section, framed by parseOpsBlock. */
struct OpsBlock
{
    std::uint64_t v1Len = 0;   ///< the ops' size as v1 bytes
    std::uint64_t opCount = 0;
    /** Cursors into the decompressed section, one per column. */
    std::array<ByteCursor, kColumnCount> col;
};

/**
 * Frame a v2 ops-chunk payload: LZ-decompress its column section into
 * @p section (caller-owned, so a stream reuses one buffer) and point
 * @p out's cursors at the six columns. Returns false on a bad
 * compression stream, a v1Len above @p max_v1_bytes (hostile length
 * fields must not drive allocation), opCount above v1Len, a column
 * running past the section, section bytes left after the last column,
 * an opcode column that is not opCount bytes, or columns (the body
 * lengths aside) that do not add up to v1Len bytes. The ops themselves
 * are not checked: a reader checks each op as it reaches it (opcode,
 * varints, body within its column) and, after the last, that every
 * column is used up.
 */
bool parseOpsBlock(const std::uint8_t *v2, std::size_t n,
                   std::vector<std::uint8_t> &section,
                   std::size_t max_v1_bytes, OpsBlock &out);

/**
 * Decode a v2 ops-chunk payload back into the exact original v1 op
 * bytes (replacing @p out's contents): parseOpsBlock, then the
 * interleave. Returns false on any structural violation: a framing
 * fault, a column over/underrun, an opcode above kMaxOpCode, a varint
 * over 10 bytes, leftover column bytes, or a reconstruction whose size
 * differs from the recorded v1Len (the output is sized to v1Len up
 * front, and a write past it is refused before it is made).
 */
bool decodeOpsBlock(const std::uint8_t *v2, std::size_t n,
                    std::vector<std::uint8_t> &out,
                    std::size_t max_v1_bytes);

} // namespace paralog::trace

#endif // PARALOG_TRACE_V2_BLOCK_HPP
