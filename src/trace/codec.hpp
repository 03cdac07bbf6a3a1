/**
 * @file
 * Record codec for `paralog-trace-v1` appends.
 *
 * A recorded append is [sideband][payload]:
 *
 *  - The *payload* is the StreamCompressor's real output — the bytes a
 *    hardware log-compression unit would ship: 1-byte header (5-bit
 *    type, predictor-hit flag), stride-predicted / varint-delta
 *    addresses, varint range length, raw dependence arcs and the 4-byte
 *    version annotation. Its length is exactly the modeled compressed
 *    size (and the log-buffer charge).
 *
 *  - The *sideband* carries simulation-level fields the size model
 *    deliberately does not charge for, because real hardware either
 *    packs them into the header byte (register ids, access size), derives
 *    them from stream position (record ids) or does not need them at
 *    all (pre-resolved payload values): a presence bitmap followed by
 *    the present fields as varints.
 *
 * RecordDecoder mirrors the encoder's stride predictors and rid delta
 * state, so decode(encode(r)) == r for every record in stream order.
 */

#ifndef PARALOG_TRACE_CODEC_HPP
#define PARALOG_TRACE_CODEC_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "app/event.hpp"
#include "capture/compressor.hpp"
#include "common/varint.hpp"

namespace paralog::trace {

// Sideband presence bitmap.
inline constexpr std::uint32_t kSbWrapper = 1u << 0;
inline constexpr std::uint32_t kSbConsumesVersion = 1u << 1;
inline constexpr std::uint32_t kSbVersionTag = 1u << 2;
inline constexpr std::uint32_t kSbDst = 1u << 3;
inline constexpr std::uint32_t kSbSrc = 1u << 4;
inline constexpr std::uint32_t kSbSize = 1u << 5;
inline constexpr std::uint32_t kSbValue = 1u << 6;
inline constexpr std::uint32_t kSbAddr = 1u << 7;
inline constexpr std::uint32_t kSbRange = 1u << 8;
inline constexpr std::uint32_t kSbCaSeq = 1u << 9;
inline constexpr std::uint32_t kSbSyscallShift = 10; // 2 bits
inline constexpr std::uint32_t kSbCaKindShift = 12;  // 2 bits
inline constexpr std::uint32_t kSbArcs = 1u << 14;

/** True if the compressed payload itself carries rec.addr. */
bool payloadCarriesAddr(EventType type);

/** True if the compressed payload itself carries rec.range(). */
bool payloadCarriesRange(EventType type);

/**
 * Append the sideband for @p rec. @p last_rid is the per-thread rid
 * delta base — the previous appended record's rid, updated in place.
 */
void encodeSideband(const EventRecord &rec, RecordId &last_rid,
                    std::vector<std::uint8_t> &out);

/**
 * Decodes one thread's append stream: sideband + payload pairs, in
 * append order. Holds the mirrored predictor and rid state.
 */
class RecordDecoder
{
  public:
    /**
     * Decode one record: reads the sideband, then exactly
     * @p payload_bytes of payload, reconstructing @p out. Returns false
     * on malformed input, including a payload length mismatch (the
     * decoder re-deriving a different size than the encoder charged)
     * and a rid below the previous record's (a delta wrapping past
     * 2^64).
     */
    bool decode(ByteCursor &c, std::uint32_t payload_bytes,
                EventRecord &out);

  private:
    Addr decodeAddr(StridePredictor &p, bool hit, ByteCursor &c,
                    bool &ok);

    std::array<StridePredictor, 3> pred_{};
    RecordId lastRid_ = 0;
};

} // namespace paralog::trace

#endif // PARALOG_TRACE_CODEC_HPP
