/**
 * @file
 * Microbenchmark of the ShadowMemory hot paths — read / write /
 * readPacked / writePacked / fill / rangeFindNot — at all four metadata
 * ratios (1, 2, 4, 8 bits per application byte). Reports ns/op and the
 * effective fill bandwidth, plus the bytesAllocated() effect of the
 * zero-write elision (fill(range, 0) over untouched space allocates
 * nothing), and the heap + globals shadow fingerprint per app byte.
 *
 * Scale with PARALOG_SCALE (inner-loop operations; default 2000000), or
 * pass --smoke for the seconds-long CTest tier2 run.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "fig_common.hpp"
#include "lifeguard/shadow_memory.hpp"

namespace {

using namespace paralog;
using Clock = std::chrono::steady_clock;

/// Prevent the compiler from discarding benchmark results.
std::uint64_t gSink = 0;

double
nsPerOp(Clock::time_point t0, Clock::time_point t1, std::uint64_t ops)
{
    std::chrono::duration<double, std::nano> d = t1 - t0;
    return d.count() / static_cast<double>(ops ? ops : 1);
}

/// Working set: 8 MB of app address space starting inside the heap
/// arena, so multiple 1 MB chunks are exercised.
constexpr Addr kBase = 0x0400'0000;
constexpr std::uint64_t kSpan = 8ULL << 20;

void
benchRatio(std::uint32_t bpb, std::uint64_t ops)
{
    std::printf("--- ratio %u bit%s/byte ---\n", bpb, bpb == 1 ? "" : "s");

    // Sequential write / read (the per-access fast path + chunk cache).
    {
        ShadowMemory s(bpb);
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < ops; ++i)
            s.write(kBase + (i % kSpan), static_cast<std::uint8_t>(i));
        auto t1 = Clock::now();
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < ops; ++i)
            acc += s.read(kBase + (i % kSpan));
        auto t2 = Clock::now();
        gSink += acc;
        std::printf("  write           %8.2f ns/op\n", nsPerOp(t0, t1, ops));
        std::printf("  read            %8.2f ns/op\n", nsPerOp(t1, t2, ops));
    }

    // Random packed access (8-byte groups, the handler common case).
    {
        ShadowMemory s(bpb);
        Rng rng(42);
        std::vector<Addr> addrs(4096);
        for (Addr &a : addrs)
            a = kBase + rng.range(0, kSpan - 8);
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < ops; ++i)
            s.writePacked(addrs[i % addrs.size()], 8, i);
        auto t1 = Clock::now();
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < ops; ++i)
            acc += s.readPacked(addrs[i % addrs.size()], 8);
        auto t2 = Clock::now();
        gSink += acc;
        std::printf("  writePacked(8)  %8.2f ns/op\n", nsPerOp(t0, t1, ops));
        std::printf("  readPacked(8)   %8.2f ns/op\n", nsPerOp(t1, t2, ops));
    }

    // Range fill + scan over allocation-sized ranges (the AddrCheck /
    // MemCheck malloc-handler pattern).
    {
        ShadowMemory s(bpb);
        const std::uint64_t range_bytes = 4096;
        const std::uint64_t iters =
            std::max<std::uint64_t>(1, ops / range_bytes);
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            Addr a = kBase + (i * range_bytes) % kSpan;
            s.fill(AddrRange{a, a + range_bytes}, 1);
        }
        auto t1 = Clock::now();
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
            Addr a = kBase + (i * range_bytes) % kSpan;
            acc += (s.rangeFindNot(AddrRange{a, a + range_bytes}, 1) ==
                    kInvalidAddr);
        }
        auto t2 = Clock::now();
        gSink += acc;
        double fill_gbs =
            static_cast<double>(iters * range_bytes) /
            std::max(1.0, nsPerOp(t0, t1, 1));
        std::printf("  fill(4K)        %8.2f ns/op  (%.2f app-GB/s)\n",
                    nsPerOp(t0, t1, iters), fill_gbs);
        std::printf("  rangeFindNot(4K)%8.2f ns/op\n", nsPerOp(t1, t2, iters));
    }

    // Zero-write elision: clearing untouched space allocates nothing.
    {
        ShadowMemory s(bpb);
        s.fill(AddrRange{kBase, kBase + kSpan}, 0);
        std::uint64_t zero_alloc = s.bytesAllocated();
        s.fill(AddrRange{kBase, kBase + kSpan}, 1);
        std::printf("  fill(8M, 0) allocated %llu bytes; fill(8M, 1) "
                    "allocated %llu bytes\n",
                    static_cast<unsigned long long>(zero_alloc),
                    static_cast<unsigned long long>(s.bytesAllocated()));
        PARALOG_ASSERT(zero_alloc == 0,
                       "zero-fill of untouched space must allocate nothing");
    }
}

/**
 * heapGlobalsFingerprint (heap 1 MB ^ globals 64 KB, what every replay,
 * recording and daemon job hashes) over an empty shadow, a sparse one
 * (one non-zero value per 4 KB, like a heap with a few live
 * allocations) and a dense one (random metadata everywhere), reported
 * per application byte hashed.
 */
void
benchFingerprint(std::uint64_t ops)
{
    std::printf("--- heap + globals fingerprint ---\n");
    const Addr bases[] = {AddressLayout::kHeapBase,
                          AddressLayout::kGlobalBase};
    const std::uint64_t spans[] = {1ULL << 20, 1ULL << 16};
    const std::uint64_t app_bytes = spans[0] + spans[1];
    const std::uint64_t reps = std::max<std::uint64_t>(1, ops / 100000);
    const char *const kinds[] = {"empty", "sparse", "dense"};
    for (std::uint32_t bpb : {1u, 2u}) {
        for (int kind = 0; kind < 3; ++kind) {
            ShadowMemory s(bpb);
            Rng rng(11);
            for (int r = 0; r < 2; ++r) {
                if (kind == 1) {
                    for (Addr o = 0; o < spans[r]; o += 4096)
                        s.write(bases[r] + o + rng.below(4096), 1);
                } else if (kind == 2) {
                    for (Addr o = 0; o < spans[r]; o += 8)
                        s.writePacked(bases[r] + o, 8, rng.next());
                }
            }
            auto t0 = Clock::now();
            for (std::uint64_t i = 0; i < reps; ++i)
                gSink += heapGlobalsFingerprint(s);
            auto t1 = Clock::now();
            std::printf("  %u bit%s/byte %-6s %8.4f ns/app-byte\n", bpb,
                        bpb == 1 ? " " : "s", kinds[kind],
                        nsPerOp(t0, t1, reps * app_bytes));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    paralog_bench::initBench(argc, argv);
    std::uint64_t ops = paralog_bench::gSmoke
                            ? 200000
                            : ExperimentOptions::envScale(2000000);
    std::printf("=== ShadowMemory microbenchmark (ops=%llu) ===\n\n",
                static_cast<unsigned long long>(ops));
    for (std::uint32_t bpb : {1u, 2u, 4u, 8u})
        benchRatio(bpb, ops);
    benchFingerprint(ops);
    std::printf("\n(checksum %llu)\n",
                static_cast<unsigned long long>(gSink));
    return 0;
}
