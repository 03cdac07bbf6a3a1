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
 * Varint spans are copied, never re-coded: decoding re-interleaves the
 * columns and reproduces the original v1 bytes *exactly* (enforced
 * against v1Len), which is what keeps every higher layer — op cursor,
 * record codec, replay, fingerprints — format-agnostic, and makes
 * v1→v2→v1 migration byte-identical.
 *
 * Splitting needs op boundaries, so the encoder embeds a structural
 * scanner for the v1 op grammar (recorder.cpp is the source of truth;
 * the scanner only walks field sizes, it decodes nothing).
 */

#ifndef PARALOG_TRACE_V2_BLOCK_HPP
#define PARALOG_TRACE_V2_BLOCK_HPP

#include <cstdint>
#include <vector>

namespace paralog::trace {

/**
 * Structurally scan one whole v1 op at @p c (see recorder.cpp for the
 * grammar), advancing the cursor past it. Returns false on malformed
 * input, leaving the cursor wherever the scan stopped. On success
 * @p prelude_end receives the offset (relative to the op start) of the
 * first body byte.
 */
bool scanOneOp(const std::uint8_t *&pos, const std::uint8_t *end,
               std::size_t &prelude_end);

/**
 * Encode @p n bytes of whole v1 ops at @p v1 into a v2 ops-chunk
 * payload, appended to @p out. Returns false if the input does not
 * scan as a sequence of complete v1 ops (nothing is appended then).
 */
bool encodeOpsBlock(const std::uint8_t *v1, std::size_t n,
                    std::vector<std::uint8_t> &out);

/**
 * Decode a v2 ops-chunk payload back into the exact original v1 op
 * bytes (replacing @p out's contents). Returns false on any
 * structural violation: bad compression stream, column over/underrun,
 * an opcode above kMaxOpCode, or a reconstruction whose size differs
 * from the recorded v1Len (the output is sized to v1Len up front, and a
 * write past it is refused before it is made). @p max_v1_bytes bounds
 * the decoded size (hostile length fields must not drive allocation).
 */
bool decodeOpsBlock(const std::uint8_t *v2, std::size_t n,
                    std::vector<std::uint8_t> &out,
                    std::size_t max_v1_bytes);

} // namespace paralog::trace

#endif // PARALOG_TRACE_V2_BLOCK_HPP
