/**
 * @file
 * Unit tests for the accelerators: IT (including the Figure 3 scenario
 * and delayed advertising), IF, and the M-TLB, plus differential tests
 * of all three against brute-force reference models over seeded
 * random operation streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "accel/accel_unit.hpp"

namespace paralog {
namespace {

EventRecord
rec(EventType type, RecordId rid)
{
    EventRecord r;
    r.type = type;
    r.tid = 0;
    r.rid = rid;
    return r;
}

EventRecord
loadRec(RegId dst, Addr addr, RecordId rid, std::uint8_t size = 8)
{
    EventRecord r = rec(EventType::kLoad, rid);
    r.dst = dst;
    r.addr = addr;
    r.size = size;
    return r;
}

EventRecord
storeRec(RegId src, Addr addr, RecordId rid, std::uint8_t size = 8)
{
    EventRecord r = rec(EventType::kStore, rid);
    r.src = src;
    r.addr = addr;
    r.size = size;
    return r;
}

EventRecord
movRec(RegId dst, RegId src, RecordId rid)
{
    EventRecord r = rec(EventType::kMovRR, rid);
    r.dst = dst;
    r.src = src;
    return r;
}

// ---------- ItTable ----------

TEST(ItTable, Figure3Scenario)
{
    // i:   mov %eax <- A       (absorbed; row eax = {A, i})
    // i+1: mov %ebx <- %eax    (absorbed; row ebx = {A, i})
    // i+2: mov B <- %ebx       (delivers mem_to_mem(B, A))
    ItTable it;
    std::vector<LgEvent> out;
    EXPECT_TRUE(it.process(loadRec(1, 0xA00, 100), out));
    EXPECT_TRUE(it.process(movRec(2, 1, 101), out));
    EXPECT_TRUE(out.empty());

    EXPECT_EQ(it.row(1).src[0].addr, 0xA00u);
    EXPECT_EQ(it.row(2).src[0].rid, 100u); // rid copied with the row

    EXPECT_TRUE(it.process(storeRec(2, 0xB00, 102), out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemToMem);
    EXPECT_EQ(out[0].addr, 0xB00u);
    EXPECT_EQ(out[0].srcs[0].addr, 0xA00u);
}

TEST(ItTable, DelayedAdvertisingMinRid)
{
    // Figure 3(b): progress is the minimum RID held in the table.
    ItTable it;
    std::vector<LgEvent> out;
    EXPECT_EQ(it.minRid(), kInvalidRecord);
    it.process(loadRec(1, 0xA00, 100), out); // eax <- A at rid 100
    it.process(movRec(2, 1, 101), out);      // ebx inherits rid 100
    it.process(loadRec(1, 0xC00, 103), out); // eax <- C at rid 103
    EXPECT_EQ(it.minRid(), 100u); // ebx still pins rid 100
    it.process(loadRec(2, 0xD00, 104), out); // ebx overwritten
    EXPECT_EQ(it.minRid(), 103u); // now the C load is the oldest
}

TEST(ItTable, MovImmTracksConstant)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord mi = rec(EventType::kMovImm, 1);
    mi.dst = 3;
    EXPECT_TRUE(it.process(mi, out));
    EXPECT_EQ(it.row(3).state, ItTable::RowState::kConst);
    // Store of a constant register: set-const event.
    EXPECT_TRUE(it.process(storeRec(3, 0xE00, 2), out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemSetConst);
}

TEST(ItTable, AluMergesSources)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(loadRec(2, 0xB00, 2), out);
    EventRecord alu = rec(EventType::kAlu, 3);
    alu.dst = 1;
    alu.src = 2;
    EXPECT_TRUE(it.process(alu, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(it.row(1).nsrc, 2u);
    // Store delivers both inherits-from addresses.
    it.process(storeRec(1, 0xC00, 4), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].nsrcs, 2u);
}

TEST(ItTable, AluSourceOverflowFlushes)
{
    ItTable it;
    std::vector<LgEvent> out;
    // Merge kItMaxSources distinct addresses into r1 ...
    it.process(loadRec(1, 0x100, 1), out);
    for (unsigned i = 1; i < kItMaxSources; ++i) {
        it.process(loadRec(2, 0x100 + 0x100 * i, 1 + i), out);
        EventRecord alu = rec(EventType::kAlu, 10 + i);
        alu.dst = 1;
        alu.src = 2;
        ASSERT_TRUE(it.process(alu, out));
    }
    EXPECT_EQ(it.row(1).nsrc, kItMaxSources);
    // ... the next distinct source overflows and falls back.
    it.process(loadRec(2, 0x900, 50), out);
    EventRecord alu = rec(EventType::kAlu, 51);
    alu.dst = 1;
    alu.src = 2;
    out.clear();
    EXPECT_FALSE(it.process(alu, out));
    EXPECT_GE(out.size(), 2u); // both rows flushed as inherit events
}

TEST(ItTable, LocalConflictFlushesOtherRows)
{
    // A store overwriting an inherits-from address must flush rows that
    // reference it (sequential-setting rule, section 4.1).
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(loadRec(2, 0xB00, 2), out);
    // Store through r2 to 0xA00 conflicts with r1's row.
    it.process(storeRec(2, 0xA00, 3), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem); // r1 flushed
    EXPECT_EQ(out[0].dst, 1);
    EXPECT_EQ(out[1].type, LgEventType::kMemToMem);
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kInvalid);
}

TEST(ItTable, SelfRmwKeepsRow)
{
    // Read-modify-write through the stored register itself is exempt:
    // meta(A) after mem_to_mem(A, {A}) equals the row's state.
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    it.process(storeRec(1, 0xA00, 2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kMemToMem);
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kAddr); // row survives
}

TEST(ItTable, VersionedLoadDeliversAndFlushes)
{
    // Section 5.5: IT cannot differentiate metadata versions.
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    EventRecord vload = loadRec(2, 0xA00, 5);
    vload.consumesVersion = true;
    vload.setVersion(VersionTag{1, 3});
    EXPECT_FALSE(it.process(vload, out)); // delivered, not absorbed
    ASSERT_EQ(out.size(), 1u);            // r1's pending state flushed
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
}

TEST(ItTable, FlushOlderThanIsSelective)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 10), out);
    it.process(loadRec(2, 0xB00, 500), out);
    it.flushOlderThan(100, out);
    EXPECT_EQ(out.size(), 1u); // only the stale row
    EXPECT_EQ(it.row(1).state, ItTable::RowState::kInvalid);
    EXPECT_EQ(it.row(2).state, ItTable::RowState::kAddr);
}

TEST(ItTable, JumpThroughTrackedRegister)
{
    ItTable it;
    std::vector<LgEvent> out;
    it.process(loadRec(1, 0xA00, 1), out);
    EventRecord jmp = rec(EventType::kJump, 2);
    jmp.src = 1;
    EXPECT_TRUE(it.process(jmp, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kJumpMem);
    EXPECT_EQ(out[0].srcs[0].addr, 0xA00u);
}

TEST(ItTable, JumpThroughConstantAbsorbed)
{
    ItTable it;
    std::vector<LgEvent> out;
    EventRecord mi = rec(EventType::kMovImm, 1);
    mi.dst = 1;
    it.process(mi, out);
    EventRecord jmp = rec(EventType::kJump, 2);
    jmp.src = 1;
    EXPECT_TRUE(it.process(jmp, out));
    EXPECT_TRUE(out.empty()); // provably safe, never delivered
}

// ---------- IdempotentFilter ----------

TEST(IdempotentFilter, AbsorbsRepeatedChecks)
{
    IdempotentFilter f(16);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // first: miss
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, false));  // repeat: hit
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, true));  // writes differ
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, true));
}

TEST(IdempotentFilter, InvalidateAllOnHighLevelEvent)
{
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.invalidateAll();
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // miss again
}

TEST(IdempotentFilter, InvalidateOverlappingOnly)
{
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.invalidateOverlapping(0x100, 8);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false));
    EXPECT_TRUE(f.checkAndInsert(0x200, 8, false));
}

TEST(IdempotentFilter, LruEviction)
{
    IdempotentFilter f(2);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.checkAndInsert(0x100, 8, false); // refresh 0x100
    f.checkAndInsert(0x300, 8, false); // evicts 0x200
    EXPECT_TRUE(f.checkAndInsert(0x100, 8, false));
    EXPECT_FALSE(f.checkAndInsert(0x200, 8, false));
}

TEST(IdempotentFilter, VersionedAccessInvalidatesStaleChecks)
{
    // A consume-version access proves a concurrent conflicting writer:
    // cached checks of those bytes predate the conflict and must not
    // absorb later ones.
    IdempotentFilter f(16);
    f.checkAndInsert(0x100, 8, false);
    f.checkAndInsert(0x200, 8, false);
    f.invalidateVersioned(0x100, 8);
    EXPECT_FALSE(f.checkAndInsert(0x100, 8, false)); // re-checked
    EXPECT_TRUE(f.checkAndInsert(0x200, 8, false));  // untouched
    EXPECT_EQ(f.stats.get("version_invalidations"), 1u);
}

// ---------- MetadataTlb ----------

TEST(Mtlb, HitAfterMiss)
{
    MetadataTlb tlb(16, true);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
    EXPECT_EQ(tlb.lookupCost(0x1008), MetadataTlb::kHitCost); // same page
    EXPECT_EQ(tlb.lookupCost(0x2000), MetadataTlb::kMissCost);
}

TEST(Mtlb, DisabledAlwaysPaysWalk)
{
    MetadataTlb tlb(16, false);
    tlb.lookupCost(0x1000);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
}

TEST(Mtlb, LruCapacity)
{
    MetadataTlb tlb(2, true);
    tlb.lookupCost(0x1000);
    tlb.lookupCost(0x2000);
    tlb.lookupCost(0x3000); // evicts 0x1000
    EXPECT_EQ(tlb.lookupCost(0x2000), MetadataTlb::kHitCost);
    EXPECT_EQ(tlb.lookupCost(0x1000), MetadataTlb::kMissCost);
}

// ---------- Differential tests against reference models ----------
//
// Each reference is the plain form of its accelerator: exact-LRU lists
// searched linearly, and an IT that scans every row on every query.
// The random streams run over small address and page pools, so hits,
// evictions, invalidations and overlaps all occur often.

/** Exact-LRU IF reference: MRU-first list, linear key search. */
class RefFilter
{
  public:
    explicit RefFilter(std::size_t cap) : cap_(cap) {}

    bool
    checkAndInsert(Addr addr, unsigned size, bool is_write)
    {
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            const Entry e = lru_[i];
            if (e.addr == addr && e.size == size && e.write == is_write) {
                lru_.erase(lru_.begin() + i);
                lru_.insert(lru_.begin(), e);
                return true;
            }
        }
        if (lru_.size() == cap_)
            lru_.pop_back();
        lru_.insert(lru_.begin(), Entry{addr, size, is_write});
        return false;
    }

    void invalidateAll() { lru_.clear(); }

    void
    invalidateOverlapping(Addr addr, unsigned size)
    {
        std::erase_if(lru_, [&](const Entry &e) {
            return e.addr < addr + size && addr < e.addr + e.size;
        });
    }

    std::size_t size() const { return lru_.size(); }

  private:
    struct Entry
    {
        Addr addr;
        unsigned size;
        bool write;
    };
    std::size_t cap_;
    std::vector<Entry> lru_; ///< most recently used first
};

/** Exact-LRU M-TLB reference: MRU-first page list, linear search. */
class RefTlb
{
  public:
    explicit RefTlb(std::size_t cap) : cap_(cap) {}

    std::uint32_t
    lookupCost(Addr app_addr)
    {
        const std::uint64_t page = app_addr >> MetadataTlb::kPageShift;
        auto it = std::find(lru_.begin(), lru_.end(), page);
        if (it != lru_.end()) {
            lru_.erase(it);
            lru_.insert(lru_.begin(), page);
            return MetadataTlb::kHitCost;
        }
        if (lru_.size() == cap_)
            lru_.pop_back();
        lru_.insert(lru_.begin(), page);
        return MetadataTlb::kMissCost;
    }

    std::size_t size() const { return lru_.size(); }

  private:
    std::size_t cap_;
    std::vector<std::uint64_t> lru_; ///< most recently used first
};

TEST(AccelDifferential, IdempotentFilterMatchesExactLru)
{
    std::mt19937_64 rng(0x1f17e5);
    std::size_t hits = 0, ops = 0;
    for (std::uint32_t cap : {1u, 3u, 16u, 64u}) {
        IdempotentFilter f(cap);
        RefFilter ref(cap);
        // 96 keys over overlapping ranges: more than the largest filter
        // holds, so it evicts, but few enough that it also hits.
        for (int op = 0; op < 50000; ++op, ++ops) {
            const Addr addr = 0x1000 + 4 * (rng() % 24);
            const unsigned size = (rng() % 2) ? 8 : 4;
            const unsigned pick = rng() % 100;
            if (pick < 90) {
                const bool w = rng() % 4 == 0;
                const bool hit = f.checkAndInsert(addr, size, w);
                ASSERT_EQ(hit, ref.checkAndInsert(addr, size, w))
                    << "cap " << cap << " op " << op;
                hits += hit;
            } else if (pick < 95) {
                f.invalidateOverlapping(addr, size);
                ref.invalidateOverlapping(addr, size);
            } else if (pick < 99) {
                f.invalidateVersioned(addr, size);
                ref.invalidateOverlapping(addr, size);
            } else {
                f.invalidateAll();
                ref.invalidateAll();
            }
            ASSERT_EQ(f.size(), ref.size()) << "cap " << cap << " op " << op;
        }
    }
    // The stream exercised both outcomes.
    EXPECT_GT(hits, ops / 10);
    EXPECT_LT(hits, ops * 9 / 10);
}

TEST(AccelDifferential, MtlbMatchesExactLru)
{
    std::mt19937_64 rng(0x7eb);
    std::size_t hits = 0, ops = 0;
    for (std::uint32_t cap : {1u, 2u, 16u, 64u}) {
        MetadataTlb tlb(cap, true);
        RefTlb ref(cap);
        // 96 pages scattered over a wide range, touched with locality:
        // mostly one of the last few pages, sometimes any page.
        std::uint64_t cur = 0;
        for (int op = 0; op < 50000; ++op, ++ops) {
            if (rng() % 4 == 0)
                cur = rng() % 96;
            const Addr addr = ((cur * 0x9E37ull) % 4096) << 12 |
                              (rng() % 4096);
            const std::uint32_t cost = tlb.lookupCost(addr);
            ASSERT_EQ(cost, ref.lookupCost(addr))
                << "cap " << cap << " op " << op;
            ASSERT_EQ(tlb.size(), ref.size());
            hits += cost == MetadataTlb::kHitCost;
        }
    }
    EXPECT_GT(hits, ops / 10);
    EXPECT_LT(hits, ops * 9 / 10);
}

/** IT reference: the same transitions as ItTable, with every flush and
 *  query a scan over all rows. */
class RefIt
{
  public:
    using Row = ItTable::Row;
    using RowState = ItTable::RowState;

    RefIt(bool exempt_self_rmw, bool flush_on_overwrite)
        : exemptSelfRmw_(exempt_self_rmw),
          flushOnOverwrite_(flush_on_overwrite)
    {
    }

    void
    flushRow(RegId r, std::vector<LgEvent> &out)
    {
        Row &row = rows_[r];
        if (row.state == RowState::kInvalid)
            return;
        LgEvent ev;
        ev.dst = r;
        if (row.state == RowState::kConst) {
            ev.type = LgEventType::kRegInheritConst;
        } else {
            ev.type = LgEventType::kRegInheritMem;
            copySources(ev, row);
            ev.size = row.src[0].size;
        }
        out.push_back(ev);
        row = Row{};
    }

    void
    flushAll(std::vector<LgEvent> &out)
    {
        for (RegId r = 0; r < kNumRegs; ++r)
            flushRow(r, out);
    }

    void
    flushOlderThan(RecordId min_rid, std::vector<LgEvent> &out)
    {
        for (RegId r = 0; r < kNumRegs; ++r) {
            for (unsigned i = 0; i < rows_[r].nsrc; ++i) {
                if (rows_[r].src[i].rid <= min_rid) {
                    flushRow(r, out);
                    break;
                }
            }
        }
    }

    void
    flushOverlapping(Addr addr, unsigned size, std::vector<LgEvent> &out,
                     RegId exempt = kNoReg)
    {
        for (RegId r = 0; r < kNumRegs; ++r) {
            if (r != exempt && rows_[r].state == RowState::kAddr &&
                rows_[r].overlaps(addr, size))
                flushRow(r, out);
        }
    }

    RecordId
    minRid() const
    {
        RecordId min = kInvalidRecord;
        for (const Row &row : rows_) {
            for (unsigned i = 0; i < row.nsrc; ++i)
                min = std::min(min, row.src[i].rid);
        }
        return min;
    }

    bool
    empty() const
    {
        return std::all_of(rows_.begin(), rows_.end(), [](const Row &r) {
            return r.state == RowState::kInvalid;
        });
    }

    const Row &row(RegId r) const { return rows_[r]; }

    bool
    process(const EventRecord &rec, std::vector<LgEvent> &out)
    {
        switch (rec.type) {
          case EventType::kLoad: {
            if (rec.consumesVersion) {
                flushOverlapping(rec.addr, rec.size, out);
                retire(rec.dst, out);
                rows_[rec.dst] = Row{};
                return false;
            }
            retire(rec.dst, out);
            Row row;
            row.state = RowState::kAddr;
            row.nsrc = 1;
            row.src[0] = ItTable::Source{rec.addr, rec.size, rec.rid};
            rows_[rec.dst] = row;
            return true;
          }
          case EventType::kMovImm:
            retire(rec.dst, out);
            rows_[rec.dst] = Row{};
            rows_[rec.dst].state = RowState::kConst;
            return true;
          case EventType::kMovRR:
            if (rows_[rec.src].state == RowState::kInvalid) {
                retire(rec.dst, out);
                rows_[rec.dst] = Row{};
                return false;
            }
            if (rec.dst != rec.src)
                retire(rec.dst, out);
            rows_[rec.dst] = rows_[rec.src];
            return true;
          case EventType::kAlu: {
            const Row s = rows_[rec.src];
            Row &d = rows_[rec.dst];
            if (d.state == RowState::kInvalid ||
                s.state == RowState::kInvalid) {
                flushRow(rec.src, out);
                flushRow(rec.dst, out);
                return false;
            }
            if (s.state == RowState::kConst)
                return true;
            if (d.state == RowState::kConst) {
                d = s;
                return true;
            }
            Row merged = d;
            for (unsigned i = 0; i < s.nsrc; ++i) {
                unsigned j = 0;
                while (j < merged.nsrc &&
                       !(merged.src[j].addr == s.src[i].addr &&
                         merged.src[j].size == s.src[i].size))
                    ++j;
                if (j < merged.nsrc) {
                    merged.src[j].rid =
                        std::min(merged.src[j].rid, s.src[i].rid);
                } else if (merged.nsrc < kItMaxSources) {
                    merged.src[merged.nsrc++] = s.src[i];
                } else {
                    flushRow(rec.src, out);
                    flushRow(rec.dst, out);
                    return false;
                }
            }
            d = merged;
            return true;
          }
          case EventType::kStore: {
            flushOverlapping(rec.addr, rec.size, out,
                             exemptSelfRmw_ ? rec.src : kNoReg);
            const Row &s = rows_[rec.src];
            if (s.state == RowState::kInvalid)
                return false;
            LgEvent ev;
            ev.addr = rec.addr;
            ev.size = rec.size;
            if (s.state == RowState::kAddr) {
                ev.type = LgEventType::kMemToMem;
                copySources(ev, s);
            } else {
                ev.type = LgEventType::kMemSetConst;
            }
            out.push_back(ev);
            return true;
          }
          case EventType::kJump: {
            const Row &s = rows_[rec.src];
            if (s.state == RowState::kConst)
                return true;
            if (s.state != RowState::kAddr)
                return false;
            LgEvent ev;
            ev.type = LgEventType::kJumpMem;
            copySources(ev, s);
            ev.size = s.src[0].size;
            ev.src = rec.src;
            out.push_back(ev);
            return true;
          }
          default:
            return false;
        }
    }

  private:
    static void
    copySources(LgEvent &ev, const Row &row)
    {
        ev.nsrcs = row.nsrc;
        for (unsigned i = 0; i < row.nsrc; ++i)
            ev.srcs[i] = MetaSrc{row.src[i].addr, row.src[i].size};
    }

    void
    retire(RegId r, std::vector<LgEvent> &out)
    {
        if (flushOnOverwrite_)
            flushRow(r, out);
    }

    std::array<Row, kNumRegs> rows_{};
    bool exemptSelfRmw_;
    bool flushOnOverwrite_;
};

void
expectSameEvents(const std::vector<LgEvent> &got,
                 const std::vector<LgEvent> &want, int op)
{
    ASSERT_EQ(got.size(), want.size()) << "op " << op;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const LgEvent &g = got[i];
        const LgEvent &w = want[i];
        ASSERT_EQ(g.type, w.type) << "op " << op << " event " << i;
        EXPECT_EQ(g.dst, w.dst) << "op " << op << " event " << i;
        EXPECT_EQ(g.src, w.src) << "op " << op << " event " << i;
        EXPECT_EQ(g.addr, w.addr) << "op " << op << " event " << i;
        EXPECT_EQ(g.size, w.size) << "op " << op << " event " << i;
        ASSERT_EQ(g.nsrcs, w.nsrcs) << "op " << op << " event " << i;
        for (unsigned k = 0; k < g.nsrcs; ++k) {
            EXPECT_EQ(g.srcs[k].addr, w.srcs[k].addr) << "op " << op;
            EXPECT_EQ(g.srcs[k].size, w.srcs[k].size) << "op " << op;
        }
    }
}

TEST(AccelDifferential, ItTableMatchesRowScan)
{
    std::mt19937_64 rng(0x17ab1e);
    std::size_t delivered = 0, absorbed = 0;
    RecordId rid = 0;
    for (int policy = 0; policy < 4; ++policy) {
        ItTable it;
        it.setExemptSelfRmw(policy & 1);
        it.setFlushOnOverwrite(policy & 2);
        RefIt ref(policy & 1, policy & 2);
        std::vector<LgEvent> out, want;
        for (int op = 0; op < 50000; ++op) {
            EventRecord r;
            r.tid = 0;
            r.rid = ++rid;
            r.dst = static_cast<RegId>(rng() % kNumRegs);
            r.src = static_cast<RegId>(rng() % kNumRegs);
            r.addr = 0x1000 + 4 * (rng() % 24);
            r.size = (rng() % 2) ? 8 : 4;
            out.clear();
            want.clear();
            const unsigned pick = rng() % 100;
            if (pick < 97) {
                static constexpr EventType kOps[] = {
                    EventType::kLoad,  EventType::kLoad,
                    EventType::kMovImm, EventType::kMovRR,
                    EventType::kAlu,   EventType::kAlu,
                    EventType::kStore, EventType::kStore,
                    EventType::kJump,
                };
                r.type = kOps[rng() % std::size(kOps)];
                r.consumesVersion =
                    r.type == EventType::kLoad && rng() % 16 == 0;
                const bool a = it.process(r, out);
                ASSERT_EQ(a, ref.process(r, want)) << "op " << op;
                absorbed += a;
            } else if (pick < 99) {
                const RecordId older = rid - rng() % 64;
                it.flushOlderThan(older, out);
                ref.flushOlderThan(older, want);
            } else {
                it.flushAll(out);
                ref.flushAll(want);
            }
            delivered += out.size();
            expectSameEvents(out, want, op);
            ASSERT_EQ(it.minRid(), ref.minRid()) << "op " << op;
            ASSERT_EQ(it.empty(), ref.empty()) << "op " << op;
            for (RegId g = 0; g < kNumRegs; ++g) {
                ASSERT_EQ(it.row(g).state, ref.row(g).state) << "op " << op;
                ASSERT_EQ(it.row(g).nsrc, ref.row(g).nsrc) << "op " << op;
            }
        }
    }
    EXPECT_GT(absorbed, 0u);
    EXPECT_GT(delivered, 0u);
}

// ---------- AccelUnit integration ----------

class AccelUnitTest : public ::testing::Test
{
  protected:
    AccelUnitTest() : cfg(SimConfig::forAppThreads(2))
    {
        policy.usesIt = true;
        policy.usesIf = false;
    }

    SimConfig cfg;
    LifeguardPolicy policy;
};

TEST_F(AccelUnitTest, CaRecordFlushesItState)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    EXPECT_TRUE(out.empty());
    EXPECT_NE(au.delayedMinRid(), kInvalidRecord);

    EventRecord ca = rec(EventType::kCaBegin, 2);
    ca.caKind = HighLevelKind::kFreeBegin;
    ca.setRange(AddrRange{0xA00, 0xB00});
    au.process(ca, false, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord); // flushed
    // The flush delivered the pending inherit plus the CA flush event.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
    EXPECT_EQ(out[1].type, LgEventType::kCaFlush);

    // A syscall CA flushes IT just the same.
    out.clear();
    au.process(loadRec(1, 0xA00, 3), false, out);
    EXPECT_NE(au.delayedMinRid(), kInvalidRecord);
    EventRecord sys = rec(EventType::kCaBegin, 4);
    sys.caKind = HighLevelKind::kSyscallBegin;
    au.process(sys, false, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
    EXPECT_EQ(out[1].type, LgEventType::kCaFlush);
}

TEST_F(AccelUnitTest, DisabledAcceleratorsDeliverEverything)
{
    SimConfig off = cfg;
    off.accel.inheritanceTracking = false;
    off.accel.idempotentFilter = false;
    off.accel.metadataTlb = false;
    AccelUnit au(off, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kLoad);
}

TEST_F(AccelUnitTest, RacesSyscallStampedOnMemEvents)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), true, out);   // absorbed anyway
    au.process(storeRec(1, 0xB00, 2), true, out);  // mem_to_mem
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].racesSyscall);
}

TEST_F(AccelUnitTest, ThresholdFlushRefreshesProgress)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    au.maybeThresholdFlush(1 + cfg.accel.advertiseThreshold + 1, out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, LgEventType::kRegInheritMem);
}

TEST_F(AccelUnitTest, StallFlushDeliversState)
{
    AccelUnit au(cfg, policy);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    au.onStall(out);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    EXPECT_EQ(out.size(), 1u);
}

TEST_F(AccelUnitTest, IfAbsorbsForAddrCheckStylePolicy)
{
    LifeguardPolicy p;
    p.usesIt = false;
    p.usesIf = true;
    AccelUnit au(cfg, p);
    std::vector<LgEvent> out;
    au.process(loadRec(1, 0xA00, 1), false, out);
    ASSERT_EQ(out.size(), 1u); // first check delivered
    out.clear();
    au.process(loadRec(1, 0xA00, 2), false, out);
    EXPECT_TRUE(out.empty()); // idempotent repeat absorbed
    // Stores are filtered like loads.
    au.process(storeRec(1, 0xB00, 3), false, out);
    ASSERT_EQ(out.size(), 1u);
    out.clear();
    au.process(storeRec(1, 0xB00, 4), false, out);
    EXPECT_TRUE(out.empty());
    // Absorbed checks leave nothing pending: IF never delays advertising.
    EXPECT_GT(au.ifilter().size(), 0u);
    EXPECT_EQ(au.delayedMinRid(), kInvalidRecord);
    // A syscall CA leaves the filter live.
    EventRecord sys = rec(EventType::kCaBegin, 5);
    sys.caKind = HighLevelKind::kSyscallBegin;
    au.process(sys, false, out);
    out.clear();
    au.process(loadRec(1, 0xA00, 6), false, out);
    EXPECT_TRUE(out.empty());
    // malloc CA invalidates the filter.
    EventRecord ca = rec(EventType::kCaEnd, 7);
    ca.caKind = HighLevelKind::kMallocEnd;
    au.process(ca, false, out);
    out.clear();
    au.process(loadRec(1, 0xA00, 8), false, out);
    EXPECT_EQ(out.size(), 1u); // delivered again
}

} // namespace
} // namespace paralog
