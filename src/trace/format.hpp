/**
 * @file
 * The `paralog-trace-v1` on-disk format.
 *
 * A recording captures one monitored run as the journal of every
 * producer-side mutation of the per-thread event streams — appends
 * (compressed through the real StreamCompressor codec), ConflictAlert
 * insertions and broadcasts, TSO drain-time arc attachment,
 * produce/consume version annotations, visibility-limit moves and
 * retire-counter ticks — each stamped with its simulated cycle and the
 * global count of single-pop lifeguard steps at which it happened (a
 * batched step of n records counts n; a stall or empty step counts 1,
 * see LifeguardCore::step). Replaying the journal against live
 * lifeguard cores reproduces the recorded run's delivery order,
 * lifeguard results, shadow fingerprints and stats bit-identically
 * (core/replay.hpp).
 *
 * Layout (all integers little-endian):
 *
 *   FileHeader (96 bytes, rewritten at finalize)
 *   Chunk*                          (any interleaving of kinds/threads)
 *   footer chunk                    (kind = kChunkFooter, last)
 *
 * The header's u32 at offset 36 is reserved. Writers store 0; readers
 * must accept any value there and ignore it, because older recordings
 * may hold a nonzero one (a since-removed host tuning knob, the shadow
 * memory's shard count, which never affected results). The config
 * fingerprint at offset 16 still covers it like every byte of 24..63.
 *
 * Chunk = { u32 kind, u32 tid, u32 payloadBytes, u32 crc32(payload) }
 * followed by payloadBytes of payload. Per (kind, tid), chunk payloads
 * concatenate into one logical stream; a CRC mismatch fails the load.
 *
 * Versioning: the major format version is part of the magic; readers
 * reject anything else. Additive evolution (new op codes, new chunk
 * kinds, footer fields appended at the end) bumps nothing — readers
 * must reject unknown op codes and ignore unknown chunk kinds. Any
 * change to existing encodings is a new magic.
 *
 * `paralog-trace-v2` (magic "PLTRACE2") is exactly that: the header
 * layout, chunk framing, latency and footer payload encodings are
 * byte-identical to v1, but kChunkOps payloads hold a compressed
 * columnar re-blocking of the v1 op bytes (v2_block.hpp) instead of
 * the raw journal stream. The columns hold the v1 op bytes exactly.
 * Replay's op cursor reads a v2 chunk's ops straight from its columns;
 * only chunkPayload (migration) re-interleaves them into v1 op bytes.
 * Both yield the same ops, so every consumer above the op cursor — the
 * record codec, replay — is format-agnostic.
 */

#ifndef PARALOG_TRACE_FORMAT_HPP
#define PARALOG_TRACE_FORMAT_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/fnv.hpp"
#include "core/run_stats.hpp"
#include "lifeguard/lifeguard.hpp"
#include "sim/config.hpp"
#include "workloads/workload.hpp"

namespace paralog::trace {

inline constexpr std::array<char, 8> kMagic = {'P', 'L', 'T', 'R',
                                               'A', 'C', 'E', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::array<char, 8> kMagicV2 = {'P', 'L', 'T', 'R',
                                                 'A', 'C', 'E', '2'};
inline constexpr std::uint32_t kFormatVersionV2 = 2;
inline constexpr std::uint32_t kHeaderBytes = 96;

/** Chunk kinds. Readers ignore unknown kinds (forward compatibility). */
inline constexpr std::uint32_t kChunkOps = 0;         ///< journal ops
inline constexpr std::uint32_t kChunkMetaLatency = 1; ///< RLE latencies
inline constexpr std::uint32_t kChunkFooter = 2;      ///< run results

/** tid field of thread-less chunks (the footer). */
inline constexpr std::uint32_t kNoThread = 0xFFFFFFFF;

/** Target payload size at which the writer flushes a chunk; an ops
 *  chunk counts its ops as v1 bytes in either container. */
inline constexpr std::uint32_t kChunkTargetBytes = 56 * 1024;

/** Journal op codes (see recorder.cpp for the encodings). */
enum class OpCode : std::uint8_t
{
    kRetire = 0,          ///< retire-counter tick
    kAppend = 1,          ///< captured record append
    kAppendCa = 2,        ///< ConflictAlert record insertion
    kAttachArcs = 3,      ///< TSO drain-time arcs onto a pending record
    kAnnotateConsume = 4, ///< consume-version annotation (TSO)
    kInsertProduce = 5,   ///< produce-version record insertion (TSO)
    kVisLimit = 6,        ///< TSO visibility-limit move
    kCaBroadcast = 7,     ///< ConflictAlert barrier bookkeeping
};
inline constexpr std::uint8_t kMaxOpCode = 7;

/** Config flag bits (header offset 29). */
inline constexpr std::uint8_t kCfgConflictAlerts = 1 << 0;
inline constexpr std::uint8_t kCfgAccelIT = 1 << 1;
inline constexpr std::uint8_t kCfgAccelIF = 1 << 2;
inline constexpr std::uint8_t kCfgAccelMTLB = 1 << 3;
/// Retired: set by recordings of the host-parallel *live* engine, whose
/// journal ops carry no lifeguard-step stamps and no metadata-latency
/// sideband. Writers never set it; parseTraceHeader refuses a header
/// that has it, since the serial replay engine has no recorded
/// interleaving to reproduce for such a journal.
inline constexpr std::uint8_t kCfgLiveParallel = 1 << 4;

/** Event-filter bits (header offset 30): which event classes the
 *  recorded lifeguard registered for. Replaying under a lifeguard that
 *  wants more than the recording captured is approximate. */
inline constexpr std::uint8_t kFilterRegOps = 1 << 0;
inline constexpr std::uint8_t kFilterLoads = 1 << 1;
inline constexpr std::uint8_t kFilterStores = 1 << 2;
inline constexpr std::uint8_t kFilterJumps = 1 << 3;
inline constexpr std::uint8_t kFilterHeapOnly = 1 << 4;

/** The recorded run's configuration, as stored in the file header. */
struct TraceConfig
{
    WorkloadKind workload = WorkloadKind::kLu;
    LifeguardKind lifeguard = LifeguardKind::kTaintCheck;
    MonitorMode mode = MonitorMode::kParallel;
    MemoryModel memoryModel = MemoryModel::kSC;
    DepTracking depTracking = DepTracking::kPerBlock;
    bool conflictAlerts = true;
    bool accelIT = true;
    bool accelIF = true;
    bool accelMTLB = true;
    std::uint8_t filterBits = 0;
    std::uint32_t appThreads = 1;
    std::uint64_t scale = 0;
    std::uint64_t seed = 1;
    std::uint64_t logBufferBytes = 64 * 1024;

    /** The header of a recording of a run of @p workload under
     *  @p lifeguard at @p scale on @p sim; toSimConfig inverts it. The
     *  event-filter bits are the recorder's to set (the Platform knows
     *  the filter). */
    static TraceConfig
    forRun(const SimConfig &sim, WorkloadKind workload,
           LifeguardKind lifeguard, std::uint64_t scale)
    {
        TraceConfig tc;
        tc.workload = workload;
        tc.lifeguard = lifeguard;
        tc.mode = sim.mode;
        tc.memoryModel = sim.memoryModel;
        tc.depTracking = sim.depTracking;
        tc.conflictAlerts = sim.conflictAlerts;
        tc.accelIT = sim.accel.inheritanceTracking;
        tc.accelIF = sim.accel.idempotentFilter;
        tc.accelMTLB = sim.accel.metadataTlb;
        tc.appThreads = sim.appThreads;
        tc.scale = scale;
        tc.seed = sim.seed;
        tc.logBufferBytes = sim.logBufferBytes;
        return tc;
    }

    /** Rebuild the SimConfig the recorded Platform ran with. */
    SimConfig
    toSimConfig() const
    {
        SimConfig sim = SimConfig::forAppThreads(appThreads);
        sim.mode = mode;
        sim.memoryModel = memoryModel;
        sim.depTracking = depTracking;
        sim.conflictAlerts = conflictAlerts;
        sim.accel.inheritanceTracking = accelIT;
        sim.accel.idempotentFilter = accelIF;
        sim.accel.metadataTlb = accelMTLB;
        sim.seed = seed;
        sim.logBufferBytes = logBufferBytes;
        return sim;
    }
};

/** A recording's run results plus what only a journal carries: replay
 *  copies `result.app` verbatim and self-checks its recomputed
 *  lifeguard side against the rest (core/run_stats.hpp, ResultTier). */
struct TraceFooter
{
    RunResult result;
    std::vector<std::uint64_t> opCount;     ///< journal ops per thread
    std::vector<std::uint64_t> recordCount; ///< appended records per thread
    // result.violationFingerprint is appended after the original fields
    // (additive evolution): absent in recordings made before it
    // existed, so presence is tracked explicitly rather than inferred
    // from a sentinel value.
    bool hasViolationFingerprint = false;
};

// Little-endian integer accessors shared by the writer, the reader and
// the streaming-ingest validator.
inline std::uint32_t
get32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t
get64le(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(get32le(p)) |
           static_cast<std::uint64_t>(get32le(p + 4)) << 32;
}

inline void
put32le(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
put64le(std::uint8_t *p, std::uint64_t v)
{
    put32le(p, static_cast<std::uint32_t>(v));
    put32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/** FNV-1a from the project's basis (kFnvBasis, not the textbook
 *  offset basis) over a byte span: the header's config fingerprint. */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    return h;
}

namespace detail {

/** Slice-by-8 tables of the reflected IEEE 802.3 polynomial: [0] is
 *  the bytewise table, [k][i] the CRC of byte i followed by k zeros. */
inline constexpr auto kCrc32Tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}();

/** The one CRC-32 kernel: advance the raw (pre-inversion) register
 *  @p crc over @p n bytes, eight at a time, then byte by byte. */
inline std::uint32_t
crc32Update(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    const auto &t = kCrc32Tables;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ get32le(p);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
              t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return crc;
}

} // namespace detail

/** CRC-32 (IEEE 802.3, reflected) over @p data. */
inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    return detail::crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

/**
 * Incremental CRC-32 over a byte stream fed in arbitrary pieces —
 * value() after any update sequence equals crc32() over the
 * concatenation. The streaming-ingest path checks chunk payloads as
 * bytes arrive, without buffering the whole payload first.
 */
class Crc32
{
  public:
    void
    update(const std::uint8_t *data, std::size_t n)
    {
        state_ = detail::crc32Update(state_, data, n);
    }
    std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/** The fixed header fields, decoded. */
struct ParsedHeader
{
    TraceConfig cfg;
    std::uint32_t formatVersion = kFormatVersion; ///< 1 or 2
    std::uint64_t configFingerprint = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t totalRecords = 0;
    std::uint64_t footerOffset = 0;
};

/**
 * Validate and decode the 96-byte file header (magic, version, header
 * size, config fingerprint, plausible thread count). Returns an empty
 * string on success, else the reason — shared by the file reader and
 * the streaming-ingest validator so the two paths cannot drift.
 * Finalization (footerOffset != 0) is *not* checked here: a stream
 * being ingested is judged complete by its footer chunk instead.
 */
inline std::string
parseTraceHeader(const std::uint8_t *h, ParsedHeader &out)
{
    if (std::memcmp(h, kMagic.data(), kMagic.size()) == 0)
        out.formatVersion = kFormatVersion;
    else if (std::memcmp(h, kMagicV2.data(), kMagicV2.size()) == 0)
        out.formatVersion = kFormatVersionV2;
    else
        return "bad magic (not a paralog trace)";
    // The version word must agree with the magic: the magic names the
    // format, the word exists so a mismatch is diagnosable.
    if (get32le(h + 8) != out.formatVersion)
        return "unsupported format version " +
               std::to_string(get32le(h + 8));
    if (get32le(h + 12) != kHeaderBytes)
        return "unexpected header size";
    out.configFingerprint = get64le(h + 16);
    if (out.configFingerprint != fnv1a(h + 24, 40))
        return "config fingerprint mismatch (corrupt header)";
    if (h[29] & kCfgLiveParallel)
        return "recorded by the retired live host-parallel engine "
               "(config flag bit 4): its journal has no lifeguard-step "
               "stamps to replay";
    out.cfg.workload = static_cast<WorkloadKind>(h[24]);
    out.cfg.lifeguard = static_cast<LifeguardKind>(h[25]);
    out.cfg.mode = static_cast<MonitorMode>(h[26]);
    out.cfg.memoryModel = static_cast<MemoryModel>(h[27]);
    out.cfg.depTracking = static_cast<DepTracking>(h[28]);
    out.cfg.conflictAlerts = h[29] & kCfgConflictAlerts;
    out.cfg.accelIT = h[29] & kCfgAccelIT;
    out.cfg.accelIF = h[29] & kCfgAccelIF;
    out.cfg.accelMTLB = h[29] & kCfgAccelMTLB;
    out.cfg.filterBits = h[30];
    out.cfg.appThreads = get32le(h + 32);
    // h + 36 is the reserved word (see the file comment): ignored.
    out.cfg.scale = get64le(h + 40);
    out.cfg.seed = get64le(h + 48);
    out.cfg.logBufferBytes = get64le(h + 56);
    out.totalOps = get64le(h + 64);
    out.totalRecords = get64le(h + 72);
    out.footerOffset = get64le(h + 80);
    if (out.cfg.appThreads == 0 || out.cfg.appThreads > 1024)
        return "implausible thread count";
    return "";
}

} // namespace paralog::trace

#endif // PARALOG_TRACE_FORMAT_HPP
