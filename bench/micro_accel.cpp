/**
 * @file
 * google-benchmark microbenches of the accelerator primitives and core
 * data structures (supports the Figure 8 analysis: these run on every
 * delivered record, so they must be cheap).
 */

#include <benchmark/benchmark.h>

#include <random>

#include "accel/idempotent_filter.hpp"
#include "accel/it_table.hpp"
#include "accel/mtlb.hpp"
#include "capture/log_buffer.hpp"
#include "capture/reduction.hpp"
#include "lifeguard/shadow_memory.hpp"

using namespace paralog;

namespace {

void
BM_ItLoadAbsorb(benchmark::State &state)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord rec;
    rec.type = EventType::kLoad;
    rec.tid = 0;
    rec.size = 8;
    RecordId rid = 0;
    for (auto _ : state) {
        rec.dst = static_cast<RegId>(rid % kNumRegs);
        rec.addr = 0x1000 + (rid % 64) * 8;
        rec.rid = rid++;
        benchmark::DoNotOptimize(it.process(rec, out));
        out.clear();
    }
}
BENCHMARK(BM_ItLoadAbsorb);

void
BM_ItStoreMemToMem(benchmark::State &state)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord load;
    load.type = EventType::kLoad;
    load.dst = 1;
    load.addr = 0x1000;
    load.size = 8;
    EventRecord store;
    store.type = EventType::kStore;
    store.src = 1;
    store.addr = 0x2000;
    store.size = 8;
    RecordId rid = 0;
    for (auto _ : state) {
        load.rid = rid++;
        it.process(load, out);
        store.rid = rid++;
        it.process(store, out);
        benchmark::DoNotOptimize(out.data());
        out.clear();
    }
}
BENCHMARK(BM_ItStoreMemToMem);

void
BM_ItMinRid(benchmark::State &state)
{
    ItTable it;
    std::vector<LgEvent> out;
    for (RegId r = 0; r < kNumRegs; ++r) {
        EventRecord rec;
        rec.type = EventType::kLoad;
        rec.dst = r;
        rec.addr = 0x1000 + r * 64;
        rec.size = 8;
        rec.rid = r;
        it.process(rec, out);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(it.minRid());
}
BENCHMARK(BM_ItMinRid);

// minRid with the 1-3 live rows that TaintCheck streams hold between
// stores (it runs once per delivered record).
void
BM_ItMinRidFewRows(benchmark::State &state)
{
    ItTable it;
    std::vector<LgEvent> out;
    for (RegId r = 0; r < state.range(0); ++r) {
        EventRecord rec;
        rec.type = EventType::kLoad;
        rec.dst = static_cast<RegId>(3 + 5 * r); // spread over the file
        rec.addr = 0x1000 + r * 64;
        rec.size = 8;
        rec.rid = 100 - r;
        it.process(rec, out);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(it.minRid());
}
BENCHMARK(BM_ItMinRidFewRows)->DenseRange(1, 3);

void
BM_IdempotentFilterHit(benchmark::State &state)
{
    IdempotentFilter filt(64);
    filt.checkAndInsert(0x1000, 8, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            filt.checkAndInsert(0x1000, 8, false));
}
BENCHMARK(BM_IdempotentFilterHit);

void
BM_IdempotentFilterMissEvict(benchmark::State &state)
{
    IdempotentFilter filt(64);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            filt.checkAndInsert(0x1000 + (a += 64), 8, false));
    }
}
BENCHMARK(BM_IdempotentFilterMissEvict);

// A full 64-entry filter under uniform picks from 149 keys: exact LRU
// then misses about 57% of checks, the barnes AddrCheck miss ratio.
void
BM_IdempotentFilterFullMixed(benchmark::State &state)
{
    IdempotentFilter filt(64);
    std::mt19937 rng(1);
    std::vector<Addr> addrs(1 << 14);
    for (Addr &a : addrs)
        a = 0x10000 + 8 * (rng() % 149);
    for (Addr a : addrs)
        filt.checkAndInsert(a, 8, false);
    std::size_t i = 0, misses = 0, checks = 0;
    for (auto _ : state) {
        const bool hit = filt.checkAndInsert(addrs[i], 8, false);
        benchmark::DoNotOptimize(hit);
        misses += !hit;
        ++checks;
        i = (i + 1) & (addrs.size() - 1);
    }
    state.counters["miss_ratio"] =
        checks ? static_cast<double>(misses) / checks : 0;
}
BENCHMARK(BM_IdempotentFilterFullMixed);

void
BM_MtlbHit(benchmark::State &state)
{
    MetadataTlb tlb(64, true);
    tlb.lookupCost(0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookupCost(0x1000));
}
BENCHMARK(BM_MtlbHit);

// About 60 pages scattered over the address space, touched in random
// order: they fit the 64 entries, so nearly every lookup hits, but
// rarely on the most recent page (the barnes pattern).
void
BM_MtlbScatteredPages(benchmark::State &state)
{
    MetadataTlb tlb(64, true);
    std::mt19937 rng(1);
    std::vector<Addr> pages(60);
    for (Addr &p : pages)
        p = static_cast<Addr>(rng() % (1u << 20)) << MetadataTlb::kPageShift;
    std::vector<Addr> addrs(1 << 12);
    for (Addr &a : addrs)
        a = pages[rng() % pages.size()] + (rng() % 4096);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookupCost(addrs[i]));
        i = (i + 1) & (addrs.size() - 1);
    }
}
BENCHMARK(BM_MtlbScatteredPages);

void
BM_ArcReduction(benchmark::State &state)
{
    ArcReducer red;
    RawArc arc{1, 0, false};
    for (auto _ : state) {
        arc.rid += (arc.rid % 3 == 0) ? 1 : 0; // mostly redundant arcs
        benchmark::DoNotOptimize(red.shouldRecord(arc));
    }
}
BENCHMARK(BM_ArcReduction);

void
BM_LogBufferAppendPop(benchmark::State &state)
{
    LogBuffer buf(64 * 1024);
    EventRecord rec;
    rec.type = EventType::kLoad;
    rec.size = 8;
    RecordId rid = 0;
    for (auto _ : state) {
        rec.rid = rid++;
        buf.append(EventRecord(rec));
        benchmark::DoNotOptimize(buf.pop());
    }
}
BENCHMARK(BM_LogBufferAppendPop);

void
BM_ShadowReadPacked(benchmark::State &state)
{
    ShadowMemory shadow(2);
    shadow.fill(AddrRange{0x1000, 0x2000}, 1);
    Addr a = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(shadow.readPacked(a, 8));
        a = 0x1000 + ((a + 8) & 0xFFF);
    }
}
BENCHMARK(BM_ShadowReadPacked);

void
BM_ShadowFillRange(benchmark::State &state)
{
    ShadowMemory shadow(1);
    for (auto _ : state)
        shadow.fill(AddrRange{0x1000, 0x1000 + 4096}, 1);
}
BENCHMARK(BM_ShadowFillRange);

} // namespace

BENCHMARK_MAIN();
