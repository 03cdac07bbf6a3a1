/**
 * @file
 * Small self-contained LZSS-style byte compressor used by the
 * `paralog-trace-v2` container (trace/v2_block.hpp). The v2 layout
 * re-blocks journal ops into per-column streams precisely so that a
 * plain match-based coder finds long exact repeats; this coder is the
 * entropy stage sitting behind that transform. No external
 * dependencies, deterministic output for identical input.
 *
 * Encoded stream:
 *
 *   varint rawLen
 *   token*            until rawLen output bytes are reconstructed
 *
 * token = varint litLen, litLen literal bytes,
 *         then — unless output is already complete —
 *         varint (matchLen - kLzMinMatch), varint dist   (1 <= dist)
 *
 * Matches may self-overlap (dist < matchLen), which is what turns a
 * run of identical bytes — or a repeating k-byte pattern — into a
 * couple of tokens.
 *
 * Decoding checks its bounds once per token, before copying it: the
 * literal run fits both the remaining input and the remaining output,
 * the match fits the remaining output, and 1 <= dist <= bytes already
 * reconstructed. A truncated or tampered stream returns false instead
 * of reading or writing out of bounds. The output is sized once, to
 * rawLen plus 16 slack bytes: a token of at most 16 bytes then copies
 * a fixed 16 bytes (a literal when that much input is left, a match
 * when dist >= 16, so source and destination never overlap), and the
 * slack is trimmed before a successful return. Self-overlapping
 * matches copy byte by byte.
 */

#ifndef PARALOG_COMMON_LZ_HPP
#define PARALOG_COMMON_LZ_HPP

#include <cstdint>
#include <vector>

namespace paralog {

/** Matches shorter than this are emitted as literals. */
inline constexpr std::size_t kLzMinMatch = 4;

/** Compress @p n bytes at @p data, appending the encoded stream to
 *  @p out. Always succeeds; incompressible input degrades to one
 *  all-literal token (n + O(varint) bytes). */
void lzCompress(const std::uint8_t *data, std::size_t n,
                std::vector<std::uint8_t> &out);

/**
 * Decompress an lzCompress() stream of @p n bytes at @p data into
 * @p out (replacing its contents). Returns false on malformed input
 * or when the encoded rawLen exceeds @p max_out (a structural bound
 * that keeps a hostile length field from allocating unbounded
 * memory).
 */
bool lzDecompress(const std::uint8_t *data, std::size_t n,
                  std::vector<std::uint8_t> &out, std::size_t max_out);

} // namespace paralog

#endif // PARALOG_COMMON_LZ_HPP
