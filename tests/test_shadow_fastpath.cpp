/**
 * @file
 * Randomized differential suite for the word-wise ShadowMemory fast
 * paths: every operation is checked against a naive per-byte reference
 * model (the semantics of the original implementation; for the
 * chunk-walking fingerprint, the original per-byte FNV-1a loop) across
 * all four metadata ratios, unaligned ranges, chunk-boundary crossings
 * and the zero-write elision, in both the single-threaded (word-wise)
 * and the concurrent (backing-byte-granular) mode, up to whole-run
 * lifeguard fingerprints.
 */

#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harness/paralog_test.hpp"
#include "lifeguard/shadow_memory.hpp"

namespace paralog {
namespace {

/** Naive reference: one masked metadata value per app byte. */
class RefShadow
{
  public:
    explicit RefShadow(std::uint32_t bpb)
        : bpb_(bpb), mask_(static_cast<std::uint8_t>((1u << bpb) - 1))
    {
    }

    std::uint8_t
    read(Addr a) const
    {
        auto it = bytes_.find(a);
        return it == bytes_.end() ? 0 : it->second;
    }

    void write(Addr a, std::uint8_t v) { bytes_[a] = v & mask_; }

    std::uint64_t
    readPacked(Addr a, unsigned n) const
    {
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < n && i < 8; ++i)
            bits |= static_cast<std::uint64_t>(read(a + i)) << (i * bpb_);
        return bits;
    }

    void
    writePacked(Addr a, unsigned n, std::uint64_t bits)
    {
        for (unsigned i = 0; i < n && i < 8; ++i)
            write(a + i, static_cast<std::uint8_t>((bits >> (i * bpb_)) &
                                                   mask_));
    }

    void
    fill(const AddrRange &r, std::uint8_t v)
    {
        for (Addr a = r.begin; a < r.end; ++a)
            write(a, v);
    }

    Addr
    rangeFindNot(const AddrRange &r, std::uint8_t v) const
    {
        for (Addr a = r.begin; a < r.end; ++a) {
            if (read(a) != v)
                return a;
        }
        return kInvalidAddr;
    }

  private:
    std::uint32_t bpb_;
    std::uint8_t mask_;
    std::map<Addr, std::uint8_t> bytes_;
};

/** (bits per byte, concurrent mode). */
class ShadowFastPath
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>>
{
  protected:
    std::uint32_t bpb() const { return std::get<0>(GetParam()); }
    bool concurrent() const { return std::get<1>(GetParam()); }
};

/// Address pool biased toward interesting spots: chunk boundaries,
/// byte-subgroup offsets, and plain interior addresses.
Addr
pickAddr(Rng &rng)
{
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    switch (rng.below(4)) {
      case 0: // near the first chunk boundary
        return kChunk - 16 + rng.below(32);
      case 1: // near a later chunk boundary
        return 3 * kChunk - 16 + rng.below(32);
      case 2: // small addresses (first chunk)
        return rng.below(512);
      default: // anywhere in a 4-chunk window
        return rng.below(4 * kChunk);
    }
}

TEST_P(ShadowFastPath, RandomizedDifferential)
{
    ShadowMemory s(bpb());
    s.setConcurrent(concurrent());
    RefShadow ref(bpb());
    Rng rng(0xC0FFEE ^ bpb() ^ (concurrent() << 12));

    for (int i = 0; i < 20000; ++i) {
        Addr a = pickAddr(rng);
        switch (rng.below(6)) {
          case 1: {
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(256));
            s.write(a, v);
            ref.write(a, v);
            break;
          }
          case 2: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            std::uint64_t bits = rng.next();
            s.writePacked(a, n, bits);
            ref.writePacked(a, n, bits);
            break;
          }
          case 3: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            s.fill(AddrRange{a, a + len}, v);
            ref.fill(AddrRange{a, a + len}, v);
            break;
          }
          case 4: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            ASSERT_EQ(s.readPacked(a, n), ref.readPacked(a, n))
                << "readPacked @" << a << " n=" << n;
            break;
          }
          case 5: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            AddrRange r{a, a + len};
            ASSERT_EQ(s.rangeFindNot(r, v), ref.rangeFindNot(r, v))
                << "rangeFindNot @" << a << " len=" << len;
            ASSERT_EQ(s.rangeAll(r, v),
                      ref.rangeFindNot(r, v) == kInvalidAddr);
            break;
          }
          default:
            ASSERT_EQ(s.read(a), ref.read(a)) << "read @" << a;
            break;
        }
    }

    // Full sweep at the end: every byte of the exercised window agrees.
    for (Addr a = 0; a < 600; ++a)
        ASSERT_EQ(s.read(a), ref.read(a)) << "sweep @" << a;
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    for (Addr a = kChunk - 64; a < kChunk + 64; ++a)
        ASSERT_EQ(s.read(a), ref.read(a)) << "boundary sweep @" << a;
}

TEST_P(ShadowFastPath, LargeFillMatchesReference)
{
    ShadowMemory s(bpb());
    s.setConcurrent(concurrent());
    RefShadow ref(bpb());

    // A multi-chunk unaligned fill followed by unaligned re-fills.
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    AddrRange big{kChunk - 1000, 2 * kChunk + 1000};
    s.fill(big, 1);
    ref.fill(big, 1);
    AddrRange inner{kChunk - 3, kChunk + 5};
    s.fill(inner, 0);
    ref.fill(inner, 0);

    EXPECT_EQ(s.rangeFindNot(big, 1), ref.rangeFindNot(big, 1));
    for (Addr a = big.begin - 8; a < big.begin + 16; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
    for (Addr a = kChunk - 8; a < kChunk + 8; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
    for (Addr a = big.end - 16; a < big.end + 8; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
}

TEST_P(ShadowFastPath, ZeroWriteElision)
{
    ShadowMemory s(bpb());
    s.setConcurrent(concurrent());
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    EXPECT_EQ(s.bytesAllocated(), 0u);

    // Zero writes and zero fills over untouched space allocate nothing.
    s.write(0x5000, 0);
    s.writePacked(0x6000, 8, 0);
    s.fill(AddrRange{0, 16 * kChunk}, 0);
    for (unsigned c = 0; c < 16; ++c)
        s.write(c * kChunk + 5, 0);
    EXPECT_EQ(s.chunkCount(), 0u);
    EXPECT_EQ(s.bytesAllocated(), 0u);
    EXPECT_TRUE(s.rangeAll(AddrRange{0x5000, 0x7000}, 0));

    // A non-zero write allocates exactly one chunk...
    s.write(0x5000, 1);
    EXPECT_EQ(s.chunkCount(), 1u);
    std::uint64_t one = s.bytesAllocated();
    EXPECT_EQ(one, kChunk * bpb() / 8);

    // ...and zero writes into a *mapped* chunk really clear metadata.
    s.write(0x5000, 0);
    EXPECT_EQ(s.read(0x5000), 0u);
    EXPECT_EQ(s.bytesAllocated(), one);

    // One non-zero write per chunk maps each chunk exactly once.
    for (unsigned c = 0; c < 16; ++c)
        s.write(c * kChunk + 5, 1);
    EXPECT_EQ(s.chunkCount(), 16u);
    EXPECT_EQ(s.bytesAllocated(), 16 * one);
}

TEST_P(ShadowFastPath, OutOfMaskComparisonNeverMatches)
{
    if (bpb() == 8)
        GTEST_SKIP() << "all 8-bit values are in-mask";
    ShadowMemory s(bpb());
    s.setConcurrent(concurrent());
    s.fill(AddrRange{0x100, 0x140}, 1);
    // Stored metadata is masked, so comparing against an out-of-range
    // value reports the first byte (legacy per-byte semantics).
    std::uint8_t big = static_cast<std::uint8_t>((1u << bpb()));
    EXPECT_EQ(s.rangeFindNot(AddrRange{0x100, 0x140}, big), 0x100u);
    EXPECT_FALSE(s.rangeAll(AddrRange{0x100, 0x140}, big));
}

INSTANTIATE_TEST_SUITE_P(
    RatiosConcurrency, ShadowFastPath,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()));

// ------------------------------------------------ fingerprint oracle

/** The original per-byte FNV-1a loop: the reference the chunk-walking
 *  ShadowMemory::fingerprint must reproduce bit for bit. */
std::uint64_t
perByteFingerprint(const ShadowMemory &s, Addr base, std::uint64_t bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (Addr a = base; a < base + bytes; ++a) {
        h ^= s.read(a);
        h *= 1099511628211ULL;
    }
    return h;
}

/** (bits per byte, concurrent mode). */
class ShadowFingerprintOracle
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>>
{
};

TEST_P(ShadowFingerprintOracle, MatchesPerByteLoopOverRandomShadows)
{
    const auto [bpb, concurrent] = GetParam();
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    const std::uint64_t word_app_bytes = 64 / bpb;
    Rng rng(0xF1A9E7 ^ (bpb << 8) ^ concurrent);

    for (int trial = 0; trial < 25; ++trial) {
        ShadowMemory s(bpb);
        s.setConcurrent(concurrent);
        const std::uint8_t max_v = static_cast<std::uint8_t>((1u << bpb) - 1);

        // Three written sites: the start of chunk 0, straddling the
        // chunk 0/1 boundary, and inside chunk 3. Chunk 2 stays
        // unmapped. Density runs from a few set values (mostly zero
        // words) to fully dense, with zero and non-zero fill runs.
        const Addr sites[] = {rng.below(256), kChunk - 2048,
                              3 * kChunk + rng.below(4096)};
        for (Addr site : sites) {
            constexpr double kDensities[] = {0.002, 0.05, 0.5, 1.0};
            const double density = kDensities[rng.below(4)];
            for (Addr a = site; a < site + 4096; ++a) {
                if (rng.chance(density))
                    s.write(a, static_cast<std::uint8_t>(
                                   rng.range(1, max_v)));
            }
            const Addr run = site + rng.below(4096);
            s.fill(AddrRange{run, run + rng.below(512)},
                   static_cast<std::uint8_t>(rng.below(max_v + 1u)));
        }

        auto check = [&](Addr base, std::uint64_t bytes) {
            ASSERT_EQ(s.fingerprint(base, bytes),
                      perByteFingerprint(s, base, bytes))
                << "trial " << trial << " base " << base << " bytes "
                << bytes;
            ASSERT_EQ(shadowFingerprint(s, base, bytes),
                      s.fingerprint(base, bytes));
        };
        for (Addr site : sites) {
            // Empty, shorter than one backing word, unaligned head and
            // tail.
            check(site + rng.below(4096), 0);
            check(site + rng.below(4096), rng.range(1, word_app_bytes - 1));
            check(site + rng.below(64), rng.below(4096));
            check(site - site % word_app_bytes, 4096);
        }
        // Across the mapped chunk 0/1 boundary.
        check(kChunk - rng.range(1, 3000), rng.range(2, 6000));
        // Wholly unmapped: inside chunk 2, and past every mapped chunk.
        check(2 * kChunk + rng.below(4096), rng.below(65536));
        check(9 * kChunk - rng.below(4096), rng.below(65536));
        // Part mapped, part unmapped, both ways round.
        check(2 * kChunk - rng.range(1, 4096), rng.range(4097, 8192));
        check(3 * kChunk - rng.range(1, 4096), rng.range(4097, 16384));
    }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosConcurrency, ShadowFingerprintOracle,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()));

TEST(ShadowFingerprint, EmptyShadowOverHeapAndGlobalsIsPinned)
{
    // The zero-run shortcut multiplies by FNV-prime powers; pin one
    // value so that math is checked against a number, not only against
    // the per-byte loop. An empty shadow reads as zero everywhere, so
    // the value is the same at every metadata ratio.
    for (std::uint32_t bpb : {1u, 2u, 4u, 8u}) {
        ShadowMemory s(bpb);
        EXPECT_EQ(s.fingerprint(AddressLayout::kHeapBase, 1 << 20),
                  0x3965bf7a845d0383ULL)
            << "bpb " << bpb;
        EXPECT_EQ(s.fingerprint(AddressLayout::kGlobalBase, 1 << 16),
                  0xfe72814514a90383ULL)
            << "bpb " << bpb;
        EXPECT_EQ(heapGlobalsFingerprint(s), 0xc7173e3f90f40000ULL)
            << "bpb " << bpb;
    }
    ShadowMemory s(1);
    EXPECT_EQ(perByteFingerprint(s, AddressLayout::kHeapBase, 1 << 20),
              0x3965bf7a845d0383ULL);
}

// ----------------------------- whole-run fingerprints, all lifeguards

/**
 * A full platform run's shadow, for all four lifeguards: the
 * chunk-walking heap + globals fingerprint every recording, replay and
 * daemon verdict carries equals the per-byte oracle over the metadata
 * a real run leaves behind.
 */
class LifeguardRunFingerprint
    : public test::QuietTestWithParam<LifeguardKind>
{
};

TEST_P(LifeguardRunFingerprint, MatchesPerByteLoop)
{
    // A workload that leaves this lifeguard's final metadata non-empty
    // (lu leaves AddrCheck's and LockSet's empty, fmm TaintCheck's).
    const WorkloadKind w = GetParam() == LifeguardKind::kTaintCheck
                               ? WorkloadKind::kLu
                               : WorkloadKind::kFmm;
    PlatformConfig cfg = makeConfig(w, GetParam(), MonitorMode::kParallel,
                                    2, opts(1200));
    Platform p(cfg);
    p.run();
    const ShadowMemory &s = p.lifeguard().shadow();
    EXPECT_GT(s.chunkCount(), 0u);
    EXPECT_EQ(heapGlobalsFingerprint(s),
              perByteFingerprint(s, AddressLayout::kHeapBase, 1 << 20) ^
                  perByteFingerprint(s, AddressLayout::kGlobalBase,
                                     1 << 16));
}

INSTANTIATE_TEST_SUITE_P(AllLifeguards, LifeguardRunFingerprint,
                         ::testing::Values(LifeguardKind::kAddrCheck,
                                           LifeguardKind::kTaintCheck,
                                           LifeguardKind::kMemCheck,
                                           LifeguardKind::kLockSet));

} // namespace
} // namespace paralog
