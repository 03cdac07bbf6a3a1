#include "accel/it_table.hpp"

#include <bit>

#include "common/logging.hpp"

namespace paralog {

namespace {

/** Merge the sources of two rows; returns false on overflow. */
bool
mergeSources(ItTable::Row &dst, const ItTable::Row &src)
{
    for (unsigned i = 0; i < src.nsrc; ++i) {
        bool dup = false;
        for (unsigned j = 0; j < dst.nsrc; ++j) {
            if (dst.src[j].addr == src.src[i].addr &&
                dst.src[j].size == src.src[i].size) {
                // Same range: keep the older rid (conservative).
                if (src.src[i].rid < dst.src[j].rid)
                    dst.src[j].rid = src.src[i].rid;
                dup = true;
                break;
            }
        }
        if (dup)
            continue;
        if (dst.nsrc >= kItMaxSources)
            return false;
        dst.src[dst.nsrc++] = src.src[i];
    }
    return true;
}

/** Copy a row's sources into a delivered event. */
void
copySources(LgEvent &ev, const ItTable::Row &row)
{
    ev.nsrcs = row.nsrc;
    for (unsigned i = 0; i < row.nsrc; ++i)
        ev.srcs[i] = MetaSrc{row.src[i].addr, row.src[i].size};
}

} // namespace

void
ItTable::appendInherit(RegId reg, const Row &row, std::vector<LgEvent> &out)
{
    LgEvent &ev = out.emplace_back();
    ev.dst = reg;
    if (row.state == RowState::kConst) {
        ev.type = LgEventType::kRegInheritConst;
    } else {
        ev.type = LgEventType::kRegInheritMem;
        copySources(ev, row);
        ev.size = row.src[0].size;
    }
}

void
ItTable::setRow(RegId reg, const Row &row)
{
    rows_[reg] = row;
    const std::uint32_t bit = 1u << reg;
    if (row.state == RowState::kInvalid)
        liveMask_ &= ~bit;
    else
        liveMask_ |= bit;
    if (row.state != RowState::kAddr) {
        addrMask_ &= ~bit;
        return;
    }
    addrMask_ |= bit;
    RecordId min = row.src[0].rid;
    for (unsigned i = 1; i < row.nsrc; ++i) {
        if (row.src[i].rid < min)
            min = row.src[i].rid;
    }
    rowMinRid_[reg] = min;
}

void
ItTable::flushRow(RegId reg, std::vector<LgEvent> &out)
{
    if (!(liveMask_ & (1u << reg)))
        return;
    appendInherit(reg, rows_[reg], out);
    setRow(reg, Row{});
    rowFlushesCtr_.inc();
}

void
ItTable::flushAll(std::vector<LgEvent> &out)
{
    // Each walk below takes its mask once: a flush only clears the bit
    // of the row it flushes, which the walk has already passed.
    for (std::uint32_t m = liveMask_; m != 0; m &= m - 1)
        flushRow(static_cast<RegId>(std::countr_zero(m)), out);
    fullFlushesCtr_.inc();
}

void
ItTable::flushOlderThan(RecordId min_rid, std::vector<LgEvent> &out)
{
    for (std::uint32_t m = addrMask_; m != 0; m &= m - 1) {
        const RegId r = static_cast<RegId>(std::countr_zero(m));
        if (rowMinRid_[r] <= min_rid) {
            flushRow(r, out);
            thresholdFlushesCtr_.inc();
        }
    }
}

void
ItTable::retireRow(RegId reg, std::vector<LgEvent> &out)
{
    // A new absorption is retargeting this register. Propagation-only
    // metadata can drop the old row (the overwrite supersedes it), but
    // under itFlushOnOverwrite the row's deferred checks must be
    // delivered first — otherwise whether they ever run depends on an
    // unrelated flush racing the overwrite (see LifeguardPolicy).
    if (flushOnOverwrite_)
        flushRow(reg, out);
}

void
ItTable::flushOverlapping(Addr addr, unsigned size,
                          std::vector<LgEvent> &out, RegId exempt)
{
    std::uint32_t m = addrMask_;
    if (exempt < kNumRegs)
        m &= ~(1u << exempt);
    for (; m != 0; m &= m - 1) {
        const RegId r = static_cast<RegId>(std::countr_zero(m));
        if (rows_[r].overlaps(addr, size)) {
            flushRow(r, out);
            localConflictsCtr_.inc();
        }
    }
}

RecordId
ItTable::minRid() const
{
    RecordId min = kInvalidRecord;
    for (std::uint32_t m = addrMask_; m != 0; m &= m - 1) {
        const RecordId r = rowMinRid_[std::countr_zero(m)];
        if (r < min)
            min = r;
    }
    return min;
}

bool
ItTable::process(const EventRecord &rec, std::vector<LgEvent> &out)
{
    switch (rec.type) {
      case EventType::kLoad: {
        if (rec.consumesVersion) {
            // TSO versioned access: IT cannot distinguish metadata
            // versions, so deliver the load itself and any pending state
            // inheriting from the same address (section 5.5).
            flushOverlapping(rec.addr, rec.size, out);
            retireRow(rec.dst, out);
            setRow(rec.dst, Row{});
            return false;
        }
        retireRow(rec.dst, out);
        Row row;
        row.state = RowState::kAddr;
        row.nsrc = 1;
        row.src[0] = Source{rec.addr, rec.size, rec.rid};
        setRow(rec.dst, row);
        absorbedLoadsCtr_.inc();
        return true;
      }

      case EventType::kMovImm: {
        retireRow(rec.dst, out);
        Row row;
        row.state = RowState::kConst;
        setRow(rec.dst, row);
        absorbedMovsCtr_.inc();
        return true;
      }

      case EventType::kMovRR:
        if (rows_[rec.src].state == RowState::kInvalid) {
            // The lifeguard's own register metadata is current for src;
            // deliver the copy so dst stays current there too.
            retireRow(rec.dst, out);
            setRow(rec.dst, Row{});
            return false;
        }
        if (rec.dst != rec.src)
            retireRow(rec.dst, out);
        setRow(rec.dst, rows_[rec.src]);
        absorbedMovsCtr_.inc();
        return true;

      case EventType::kAlu: {
        const Row &s = rows_[rec.src];
        const Row &d = rows_[rec.dst];
        if (d.state == RowState::kInvalid || s.state == RowState::kInvalid) {
            // Unknown state: fall back to the lifeguard's own register
            // metadata by flushing and delivering the ALU event.
            flushRow(rec.src, out);
            flushRow(rec.dst, out);
            return false;
        }
        if (s.state == RowState::kConst) {
            // Metadata unchanged by a constant operand.
            absorbedAluCtr_.inc();
            return true;
        }
        if (d.state == RowState::kConst) {
            setRow(rec.dst, s);
            absorbedAluCtr_.inc();
            return true;
        }
        // Both inherit from memory: merge the source sets (<= 2 total).
        Row merged = d;
        if (mergeSources(merged, s)) {
            setRow(rec.dst, merged);
            absorbedAluCtr_.inc();
            return true;
        }
        // More than two distinct sources: give up on tracking dst.
        flushRow(rec.src, out);
        flushRow(rec.dst, out);
        aluOverflowsCtr_.inc();
        return false;
      }

      case EventType::kStore: {
        // Local conflict detection (sequential-setting rule retained):
        // the store may overwrite an inherits-from location. The stored
        // register's own row may be exempt: a read-modify-write through
        // the same register is idempotent under union/intersection
        // metadata combining (meta(A) after mem_to_mem(A, {A, ...})
        // equals the row's own state), so the row remains accurate.
        // State-transition metadata (MemCheck init bits) is not a
        // lattice — there a deferred check crossing its own store
        // changes outcome with flush timing, so the lifeguard's policy
        // disables the exemption and the row flushes first.
        flushOverlapping(rec.addr, rec.size, out,
                         exemptSelfRmw_ ? rec.src : kNoReg);

        const Row &s = rows_[rec.src];
        if (s.state == RowState::kInvalid)
            return false; // deliver the raw store
        LgEvent &ev = out.emplace_back();
        ev.addr = rec.addr;
        ev.size = rec.size;
        if (s.state == RowState::kAddr) {
            ev.type = LgEventType::kMemToMem;
            copySources(ev, s);
            memToMemCtr_.inc();
        } else {
            ev.type = LgEventType::kMemSetConst;
            setConstCtr_.inc();
        }
        return true;
      }

      case EventType::kJump: {
        const Row &s = rows_[rec.src];
        if (s.state == RowState::kConst) {
            // Provably constant: the check passes without delivery.
            absorbedJumpsCtr_.inc();
            return true;
        }
        if (s.state == RowState::kAddr) {
            LgEvent &ev = out.emplace_back();
            ev.type = LgEventType::kJumpMem;
            copySources(ev, s);
            ev.size = s.src[0].size;
            ev.src = rec.src;
            return true;
        }
        return false;
      }

      default:
        return false; // not an IT-relevant record
    }
}

} // namespace paralog
