#include "accel/it_table.hpp"

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

LgEvent
ItTable::inheritEvent(RegId reg, const Row &row)
{
    LgEvent ev;
    ev.dst = reg;
    if (row.state == RowState::kConst) {
        ev.type = LgEventType::kRegInheritConst;
    } else {
        ev.type = LgEventType::kRegInheritMem;
        copySources(ev, row);
        ev.size = row.src[0].size;
    }
    return ev;
}

void
ItTable::flushRow(RegId reg, std::vector<LgEvent> &out)
{
    Row &row = rows_[reg];
    if (row.state == RowState::kInvalid)
        return;
    out.push_back(inheritEvent(reg, row));
    row = Row{};
    rowFlushesCtr_.inc();
}

void
ItTable::flushAll(std::vector<LgEvent> &out)
{
    for (RegId r = 0; r < kNumRegs; ++r)
        flushRow(r, out);
    fullFlushesCtr_.inc();
}

void
ItTable::flushOlderThan(RecordId min_rid, std::vector<LgEvent> &out)
{
    for (RegId r = 0; r < kNumRegs; ++r) {
        const Row &row = rows_[r];
        for (unsigned i = 0; i < row.nsrc; ++i) {
            if (row.src[i].rid <= min_rid) {
                flushRow(r, out);
                thresholdFlushesCtr_.inc();
                break;
            }
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
    for (RegId r = 0; r < kNumRegs; ++r) {
        if (r == exempt)
            continue;
        Row &row = rows_[r];
        if (row.state == RowState::kAddr && row.overlaps(addr, size)) {
            flushRow(r, out);
            localConflictsCtr_.inc();
        }
    }
}

RecordId
ItTable::minRid() const
{
    RecordId min = kInvalidRecord;
    for (const Row &row : rows_) {
        for (unsigned i = 0; i < row.nsrc; ++i) {
            if (row.src[i].rid < min)
                min = row.src[i].rid;
        }
    }
    return min;
}

bool
ItTable::empty() const
{
    for (const Row &row : rows_) {
        if (row.state != RowState::kInvalid)
            return false;
    }
    return true;
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
            rows_[rec.dst] = Row{};
            return false;
        }
        retireRow(rec.dst, out);
        Row row;
        row.state = RowState::kAddr;
        row.nsrc = 1;
        row.src[0] = Source{rec.addr, rec.size, rec.rid};
        rows_[rec.dst] = row;
        absorbedLoadsCtr_.inc();
        return true;
      }

      case EventType::kMovImm: {
        retireRow(rec.dst, out);
        Row row;
        row.state = RowState::kConst;
        rows_[rec.dst] = row;
        absorbedMovsCtr_.inc();
        return true;
      }

      case EventType::kMovRR:
        if (rows_[rec.src].state == RowState::kInvalid) {
            // The lifeguard's own register metadata is current for src;
            // deliver the copy so dst stays current there too.
            retireRow(rec.dst, out);
            rows_[rec.dst] = Row{};
            return false;
        }
        if (rec.dst != rec.src)
            retireRow(rec.dst, out);
        rows_[rec.dst] = rows_[rec.src];
        absorbedMovsCtr_.inc();
        return true;

      case EventType::kAlu: {
        const Row &s = rows_[rec.src];
        Row &d = rows_[rec.dst];
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
            d = s;
            absorbedAluCtr_.inc();
            return true;
        }
        // Both inherit from memory: merge the source sets (<= 2 total).
        Row merged = d;
        if (mergeSources(merged, s)) {
            d = merged;
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
        LgEvent ev;
        ev.addr = rec.addr;
        ev.size = rec.size;
        switch (s.state) {
          case RowState::kAddr:
            ev.type = LgEventType::kMemToMem;
            copySources(ev, s);
            out.push_back(ev);
            memToMemCtr_.inc();
            return true;
          case RowState::kConst:
            ev.type = LgEventType::kMemSetConst;
            out.push_back(ev);
            setConstCtr_.inc();
            return true;
          case RowState::kInvalid:
            return false; // deliver the raw store
        }
        return false;
      }

      case EventType::kJump: {
        const Row &s = rows_[rec.src];
        if (s.state == RowState::kConst) {
            // Provably constant: the check passes without delivery.
            absorbedJumpsCtr_.inc();
            return true;
        }
        if (s.state == RowState::kAddr) {
            LgEvent ev;
            ev.type = LgEventType::kJumpMem;
            copySources(ev, s);
            ev.size = s.src[0].size;
            ev.src = rec.src;
            out.push_back(ev);
            return true;
        }
        return false;
      }

      default:
        return false; // not an IT-relevant record
    }
}

} // namespace paralog
