/** @file Unit tests for the common utility module. */

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace paralog {
namespace {

TEST(Bitops, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(65));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(Bitops, Align)
{
    EXPECT_EQ(alignDown(70, 64), 64u);
    EXPECT_EQ(alignUp(70, 64), 128u);
    EXPECT_EQ(alignUp(64, 64), 64u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(jsonEscape("plain text"), "plain text");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("C:\\dir"), "C:\\\\dir");
    EXPECT_EQ(jsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
    EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(Stats, CounterBasics)
{
    StatSet s("x");
    s.counter("a").inc();
    s.counter("a").inc(4);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("missing"), 0u);
    s.reset();
    EXPECT_EQ(s.get("a"), 0u);
}

TEST(Stats, BoundCounterIsTheNamedCounter)
{
    // A component binds its counter once; a later name lookup (a
    // post-run reader, a test) must see the same object.
    StatSet s;
    Counter &bound = s.counter("hits");
    Histogram &hist = s.histogram("lat");
    s.counter("other").inc(); // a later insertion must not move it
    bound.inc(3);
    EXPECT_EQ(&s.counter("hits"), &bound);
    EXPECT_EQ(&s.histogram("lat"), &hist);
    EXPECT_EQ(s.get("hits"), 3u);
    s.counter("hits").inc();
    EXPECT_EQ(bound.value(), 4u);
}

TEST(Stats, ConcurrentFirstTouchBumpAndRender)
{
    // The daemon's pattern: workers first-touch and bump counters while
    // the event loop reads and renders the same set.
    StatSet s("svc");
    Counter &bound = s.counter("jobs.completed");
    constexpr int kWriters = 3;
    constexpr int kNames = 200;
    constexpr std::uint64_t kBumps = 20000;
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w)
        threads.emplace_back([&s, w] {
            for (int i = 0; i < kNames; ++i)
                s.counter("w" + std::to_string(w) + "." + std::to_string(i))
                    .inc();
        });
    threads.emplace_back([&bound] {
        for (std::uint64_t i = 0; i < kBumps; ++i)
            bound.inc();
    });
    std::uint64_t last = 0;
    std::thread reader([&] {
        while (!stop.load()) {
            std::uint64_t v = s.get("jobs.completed");
            EXPECT_GE(v, last); // monotonic as seen from another thread
            last = v;
            std::ostringstream os;
            s.render(os);
        }
    });
    for (std::thread &t : threads)
        t.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(s.get("jobs.completed"), kBumps);
    for (int w = 0; w < kWriters; ++w)
        for (int i = 0; i < kNames; ++i)
            EXPECT_EQ(s.get("w" + std::to_string(w) + "." +
                            std::to_string(i)),
                      1u);
    std::ostringstream os;
    s.render(os);
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              kWriters * kNames + 1);
    EXPECT_NE(text.find("counter svc.jobs.completed 20000\n"),
              std::string::npos);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(100);
    h.sample(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1101.0 / 4.0);
}

TEST(Stats, HistogramPercentileIsTheClampedBucketBound)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u); // empty
    h.sample(0);
    EXPECT_EQ(h.percentile(0.5), 0u); // bucket bound 1, clamped to max 0
    for (std::uint64_t v = 1; v <= 99; ++v)
        h.sample(v);
    // 100 samples 0..99: the 50th falls in bucket [32, 64).
    EXPECT_EQ(h.percentile(0.50), 63u);
    EXPECT_EQ(h.percentile(0.99), 99u);
}

TEST(Stats, RenderPinsTheMeterLine)
{
    // The `paralogd` PLSTATS1 meter line for samples 1..100, as the
    // service has always printed it (perfbench and CI parse it).
    StatSet s;
    for (std::uint64_t v = 1; v <= 100; ++v)
        s.histogram("x").sample(v);
    std::ostringstream os;
    s.render(os);
    EXPECT_EQ(os.str(), "meter x count=100 sum=5050 mean=50.5 min=1 "
                        "p50=63 p90=100 p99=100 max=100\n");
}

TEST(Stats, RenderPrefixesCountersGaugesAndMeters)
{
    StatSet s("svc");
    s.counter("b").inc(2);
    s.counter("a").inc();
    s.histogram("lat").sample(3);
    std::ostringstream os;
    s.render(os, {{"depth", 0}, {"level", -3}});
    EXPECT_EQ(os.str(), "counter svc.a 1\n"
                        "counter svc.b 2\n"
                        "gauge svc.depth 0\n"
                        "gauge svc.level -3\n"
                        "meter svc.lat count=1 sum=3 mean=3.0 min=3 "
                        "p50=3 p90=3 p99=3 max=3\n");
}

TEST(SampleSummary, MinMedianMax)
{
    SampleSummary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.median(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_TRUE(s.allEqual());

    s.add(30);
    s.add(10);
    s.add(20);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 10u);
    EXPECT_EQ(s.median(), 20u);
    EXPECT_EQ(s.max(), 30u);
    EXPECT_FALSE(s.allEqual());

    // Even count: the lower middle, exact and integer-valued.
    s.add(40);
    EXPECT_EQ(s.median(), 20u);
}

TEST(SampleSummary, OrderInvariant)
{
    // The --repeat aggregation contract: any completion order of the
    // same samples yields the same summary.
    const std::uint64_t vals[] = {7, 3, 3, 9, 5};
    std::uint64_t perm_min = 0, perm_med = 0, perm_max = 0;
    for (int rot = 0; rot < 5; ++rot) {
        SampleSummary s;
        for (int i = 0; i < 5; ++i)
            s.add(vals[(i + rot) % 5]);
        if (rot == 0) {
            perm_min = s.min();
            perm_med = s.median();
            perm_max = s.max();
        }
        EXPECT_EQ(s.min(), perm_min);
        EXPECT_EQ(s.median(), perm_med);
        EXPECT_EQ(s.max(), perm_max);
    }
    EXPECT_EQ(perm_min, 3u);
    EXPECT_EQ(perm_med, 5u);
    EXPECT_EQ(perm_max, 9u);
}

TEST(SampleSummary, AllEqualAndInterleavedReads)
{
    SampleSummary s;
    s.add(4);
    EXPECT_EQ(s.median(), 4u); // read ...
    s.add(4);                  // ... then mutate again
    s.add(4);
    EXPECT_TRUE(s.allEqual());
    EXPECT_EQ(s.min(), 4u);
    EXPECT_EQ(s.max(), 4u);

    WallClockSummary w;
    w.add(2.5);
    w.add(1.5);
    EXPECT_DOUBLE_EQ(w.min(), 1.5);
    EXPECT_DOUBLE_EQ(w.median(), 1.5);
    EXPECT_DOUBLE_EQ(w.max(), 2.5);
}

TEST(AddrRange, Basics)
{
    AddrRange r{100, 200};
    EXPECT_EQ(r.size(), 100u);
    EXPECT_TRUE(r.contains(100));
    EXPECT_FALSE(r.contains(200));
    EXPECT_TRUE(r.overlaps(AddrRange{150, 250}));
    EXPECT_FALSE(r.overlaps(AddrRange{200, 250}));
    EXPECT_TRUE(AddrRange{}.empty());
}

} // namespace
} // namespace paralog
