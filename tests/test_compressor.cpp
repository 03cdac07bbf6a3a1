/** @file Unit tests for the stream compressor model and its byte codec
 *  (encode through StreamCompressor, decode through the trace-layer
 *  RecordDecoder; the modeled sizes and the emitted bytes come from one
 *  code path, and decode(encode(r)) must reproduce r exactly). */

#include <gtest/gtest.h>

#include "capture/compressor.hpp"
#include "common/rng.hpp"
#include "trace/codec.hpp"

namespace paralog {
namespace {

EventRecord
loadAt(Addr addr)
{
    EventRecord r;
    r.type = EventType::kLoad;
    r.addr = addr;
    r.size = 8;
    return r;
}

TEST(Compressor, StridedLoadsApproachOneByte)
{
    StreamCompressor c;
    for (Addr a = 0x1000; a < 0x1000 + 8 * 1000; a += 8)
        c.encode(loadAt(a));
    // After the predictor locks on, every strided load is 1 byte.
    EXPECT_LT(c.averageBytes(), 1.1);
}

TEST(Compressor, RegisterOpsAreOneByte)
{
    StreamCompressor c;
    EventRecord r;
    r.type = EventType::kMovRR;
    EXPECT_EQ(c.encode(r), 1u);
    r.type = EventType::kAlu;
    EXPECT_EQ(c.encode(r), 1u);
}

TEST(Compressor, RandomAddressesCostMore)
{
    StreamCompressor strided, random;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        strided.encode(loadAt(0x1000 + 8 * i));
        random.encode(loadAt(rng.next() & 0xFFFFFFFFF8ULL));
    }
    EXPECT_GT(random.averageBytes(), strided.averageBytes() + 1.0);
}

TEST(Compressor, ArcsAddBytes)
{
    StreamCompressor c;
    EventRecord plain = loadAt(0x1000);
    std::uint32_t base = c.encode(plain);
    EventRecord with_arc = loadAt(0x1008);
    with_arc.mutableArcs().push_back(DepArc{1, 100});
    EXPECT_GT(c.encode(with_arc), base - 1); // arc payload present
    EventRecord strided = loadAt(0x1010);
    std::uint32_t after = c.encode(strided);
    EXPECT_LT(after, 3u); // predictor state survived the arc record
}

TEST(Compressor, HighLevelRecordsCarryRanges)
{
    StreamCompressor c;
    EventRecord m;
    m.type = EventType::kMallocEnd;
    m.setRange(AddrRange{0x10000, 0x10400});
    EXPECT_GT(c.encode(m), 2u);
}

TEST(Compressor, DeterministicAcrossInstances)
{
    StreamCompressor a, b;
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        EventRecord r = loadAt(0x1000 + (rng.next() & 0xFFF8));
        EXPECT_EQ(a.encode(r), b.encode(r));
    }
    EXPECT_EQ(a.totalBytes(), b.totalBytes());
}

TEST(Compressor, ResetClearsState)
{
    StreamCompressor c;
    c.encode(loadAt(0x1000));
    c.reset();
    EXPECT_EQ(c.totalRecords(), 0u);
    EXPECT_EQ(c.totalBytes(), 0u);
}

// ----------------------- encode/decode round trip (trace codec) -----

/** Field-by-field equality (EventRecord has no operator==). */
void
expectRecordEq(const EventRecord &got, const EventRecord &want,
               const std::string &ctx)
{
    EXPECT_EQ(got.type, want.type) << ctx;
    EXPECT_EQ(got.rid, want.rid) << ctx;
    EXPECT_EQ(got.dst, want.dst) << ctx;
    EXPECT_EQ(got.src, want.src) << ctx;
    EXPECT_EQ(got.size, want.size) << ctx;
    EXPECT_EQ(got.addr, want.addr) << ctx;
    EXPECT_EQ(got.value, want.value) << ctx;
    EXPECT_EQ(got.range(), want.range()) << ctx;
    EXPECT_EQ(got.syscall, want.syscall) << ctx;
    EXPECT_EQ(got.caKind, want.caKind) << ctx;
    EXPECT_EQ(got.caSeq, want.caSeq) << ctx;
    EXPECT_EQ(got.arcs(), want.arcs()) << ctx;
    EXPECT_EQ(got.version(), want.version()) << ctx;
    EXPECT_EQ(got.consumesVersion, want.consumesVersion) << ctx;
    EXPECT_EQ(got.wrapper, want.wrapper) << ctx;
}

/**
 * Round-trip a stream of records: encode each through one
 * StreamCompressor (payload bytes + sideband), decode through one
 * RecordDecoder, and additionally run an encoder WITHOUT a sink to
 * prove the emitted byte counts equal the legacy modeled sizes.
 */
void
roundTripStream(const std::vector<EventRecord> &stream)
{
    StreamCompressor enc, legacy;
    trace::RecordDecoder dec;
    RecordId enc_last_rid = 0;
    std::uint64_t decoded_bytes = 0;

    EventRecord back; // reused, like the trace reader's decode target
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const EventRecord &rec = stream[i];
        std::string ctx = std::string("record ") + std::to_string(i) +
                          " (" + toString(rec.type) + ")";

        std::vector<std::uint8_t> bytes;
        trace::encodeSideband(rec, enc_last_rid, bytes);
        std::size_t sideband_len = bytes.size();
        std::uint32_t emitted = enc.encode(rec, &bytes);
        std::uint32_t modeled = legacy.encode(rec);

        // The emitted payload is exactly the modeled size.
        EXPECT_EQ(emitted, modeled) << ctx;
        ASSERT_EQ(bytes.size() - sideband_len, modeled) << ctx;

        ByteCursor c(bytes.data(), bytes.size());
        ASSERT_TRUE(dec.decode(c, emitted, back)) << ctx;
        EXPECT_TRUE(c.atEnd()) << ctx;
        expectRecordEq(back, rec, ctx);
        // Decoding allocates a cold block only for a record that
        // carries range, version or arcs.
        EXPECT_EQ(back.hasColdBlock(), back.range() != AddrRange{} ||
                                           back.version() != VersionTag{} ||
                                           !back.arcs().empty())
            << ctx;
        decoded_bytes += emitted;
    }
    EXPECT_EQ(decoded_bytes, legacy.totalBytes());
    EXPECT_EQ(enc.totalBytes(), legacy.totalBytes());
}

/** A representative record of @p type at @p addr with rich fields. */
EventRecord
recordOf(EventType type, Addr addr, RecordId rid)
{
    EventRecord r;
    r.type = type;
    r.tid = 0;
    r.rid = rid;
    r.addr = 0;
    switch (type) {
      case EventType::kLoad:
      case EventType::kStore:
        r.addr = addr;
        r.size = 8;
        r.dst = 3;
        r.src = 5;
        break;
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
        r.addr = addr;
        break;
      case EventType::kBarrierPass:
        r.addr = addr;
        r.value = rid & 1; // both phases
        break;
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
        r.setRange(AddrRange{addr, addr + 256});
        r.caSeq = 11;
        break;
      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd:
        r.setRange(AddrRange{addr, addr + 64});
        r.syscall = SyscallKind::kRead;
        break;
      case EventType::kCaBegin:
      case EventType::kCaEnd:
        r.setRange(AddrRange{addr, addr + 128});
        r.value = 9; // CA sequence
        r.caKind = HighLevelKind::kFreeBegin;
        break;
      case EventType::kProduceVersion:
        r.addr = addr;
        r.size = 4;
        r.value = 17; // producing store rid
        r.setVersion(VersionTag{1, 17});
        break;
      case EventType::kMovImm:
      case EventType::kThreadSwitch:
        r.value = 42;
        break;
      case EventType::kJump:
        r.src = 7;
        r.value = 0xBEEF;
        break;
      default:
        break;
    }
    return r;
}

TEST(CodecRoundTrip, EveryEventTypeHitAndMiss)
{
    // For every type: a cold predictor (miss, raw addr), a second
    // access establishing the stride, and a third hitting it — plus
    // the no-address types riding along. One shared stream, so the
    // decoder predictors track the encoder's across all of it.
    std::vector<EventRecord> stream;
    RecordId rid = 0;
    for (unsigned t = static_cast<unsigned>(EventType::kLoad);
         t <= static_cast<unsigned>(EventType::kProduceVersion); ++t) {
        EventType type = static_cast<EventType>(t);
        for (Addr step = 0; step < 3; ++step)
            stream.push_back(
                recordOf(type, 0x40000 + 0x1000 * t + 64 * step, rid++));
    }
    roundTripStream(stream);
}

TEST(CodecRoundTrip, ArcsVersionsAndFlags)
{
    std::vector<EventRecord> stream;
    EventRecord ld = recordOf(EventType::kLoad, 0x1000, 5);
    ld.mutableArcs().push_back(DepArc{1, 100});
    ld.mutableArcs().push_back(DepArc{3, 70000}); // multi-byte varint rid
    ld.consumesVersion = true;
    ld.setVersion(VersionTag{2, 1234});
    stream.push_back(ld);

    EventRecord st = recordOf(EventType::kStore, 0x2000, 6);
    st.wrapper = true;
    stream.push_back(st);

    EventRecord sys = recordOf(EventType::kSyscallEnd, 0x3000, 7);
    sys.syscall = SyscallKind::kWrite;
    stream.push_back(sys);

    // CA records share the rid of the preceding record (delta 0).
    EventRecord ca = recordOf(EventType::kCaBegin, 0x3100, 7);
    stream.push_back(ca);

    roundTripStream(stream);
}

TEST(CodecRoundTrip, RandomizedStream)
{
    Rng rng(1234);
    std::vector<EventRecord> stream;
    RecordId rid = 0;
    for (int i = 0; i < 2000; ++i) {
        unsigned t = static_cast<unsigned>(EventType::kLoad) +
                     static_cast<unsigned>(
                         rng.next() %
                         static_cast<unsigned>(EventType::kProduceVersion));
        rid += rng.next() % 3;
        EventRecord r = recordOf(static_cast<EventType>(t),
                                 rng.next() & 0xFFFFF8, rid);
        if (rng.next() % 4 == 0)
            r.mutableArcs().push_back(
                DepArc{static_cast<ThreadId>(rng.next() % 8),
                       rng.next() % 100000});
        stream.push_back(r);
    }
    roundTripStream(stream);
}

TEST(Compressor, RealisticMixUnderTwoBytes)
{
    // The LBA claim: ~1 byte per record on average for real streams.
    // A realistic mix (strided loads/stores, register ops) must stay
    // well under 2 bytes per record.
    StreamCompressor c;
    for (int i = 0; i < 2000; ++i) {
        c.encode(loadAt(0x1000 + 8 * (i % 64)));
        EventRecord alu;
        alu.type = EventType::kAlu;
        c.encode(alu);
        EventRecord st;
        st.type = EventType::kStore;
        st.addr = 0x8000 + 8 * (i % 64);
        st.size = 8;
        c.encode(st);
        EventRecord mov;
        mov.type = EventType::kMovRR;
        c.encode(mov);
    }
    EXPECT_LT(c.averageBytes(), 1.6);
}

} // namespace
} // namespace paralog
