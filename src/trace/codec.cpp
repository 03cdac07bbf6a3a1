#include "trace/codec.hpp"

namespace paralog::trace {

bool
payloadCarriesAddr(EventType type)
{
    switch (type) {
      case EventType::kLoad:
      case EventType::kStore:
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
      case EventType::kProduceVersion:
        return true;
      default:
        return false;
    }
}

bool
payloadCarriesRange(EventType type)
{
    switch (type) {
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd:
      case EventType::kCaBegin:
      case EventType::kCaEnd:
        return true;
      default:
        return false;
    }
}

void
encodeSideband(const EventRecord &rec, RecordId &last_rid,
               std::vector<std::uint8_t> &out)
{
    const AddrRange range = rec.range();
    const VersionTag version = rec.version();
    std::uint32_t flags = 0;
    if (rec.wrapper)
        flags |= kSbWrapper;
    if (rec.consumesVersion)
        flags |= kSbConsumesVersion;
    if (version.valid())
        flags |= kSbVersionTag;
    if (rec.dst != 0)
        flags |= kSbDst;
    if (rec.src != 0)
        flags |= kSbSrc;
    if (rec.size != 0)
        flags |= kSbSize;
    if (rec.value != 0)
        flags |= kSbValue;
    if (!payloadCarriesAddr(rec.type) && rec.addr != 0)
        flags |= kSbAddr;
    // The payload reconstructs the range as [begin, begin + size());
    // ship it explicitly only when that would not round-trip.
    bool range_in_payload = payloadCarriesRange(rec.type) &&
                            range.end >= range.begin;
    if (!range_in_payload && range != AddrRange{})
        flags |= kSbRange;
    if (rec.caSeq != kNoCaSeq)
        flags |= kSbCaSeq;
    flags |= static_cast<std::uint32_t>(rec.syscall) << kSbSyscallShift;
    flags |= static_cast<std::uint32_t>(rec.caKind) << kSbCaKindShift;
    if (!rec.arcs().empty())
        flags |= kSbArcs;

    putVarint(out, flags);
    putVarint(out, rec.rid - last_rid);
    last_rid = rec.rid;
    if (flags & kSbDst)
        out.push_back(rec.dst);
    if (flags & kSbSrc)
        out.push_back(rec.src);
    if (flags & kSbSize)
        out.push_back(rec.size);
    if (flags & kSbValue)
        putVarint(out, rec.value);
    if (flags & kSbAddr)
        putVarint(out, rec.addr);
    if (flags & kSbRange) {
        putVarint(out, range.begin);
        putVarint(out, range.end);
    }
    if (flags & kSbCaSeq)
        putVarint(out, rec.caSeq);
    if (flags & kSbVersionTag) {
        putVarint(out, version.tid);
        putVarint(out, version.rid);
    }
    if (flags & kSbArcs)
        putVarint(out, rec.arcs().size());
}

Addr
RecordDecoder::decodeAddr(StridePredictor &p, bool hit, ByteCursor &c,
                          bool &ok)
{
    Addr addr = 0;
    if (hit) {
        ok = ok && p.valid;
        addr = p.lastAddr + static_cast<Addr>(p.lastStride);
    } else if (p.valid) {
        std::uint64_t z = 0;
        ok = ok && c.getVarint(z);
        addr = p.lastAddr + static_cast<Addr>(zigzagDecode(z));
    } else {
        std::uint64_t raw = 0;
        ok = ok && c.getVarint(raw);
        addr = raw;
    }
    if (ok)
        p.advance(addr);
    return addr;
}

bool
RecordDecoder::decode(ByteCursor &c, std::uint32_t payload_bytes,
                      EventRecord &out)
{
    out.reset();

    // ---- sideband ----
    std::uint64_t flags = 0, rid_delta = 0;
    if (!c.getVarint(flags) || !c.getVarint(rid_delta))
        return false;
    // The encoder writes rid - lastRid unsigned, so a rid below its
    // predecessor comes back as a delta that wraps past 2^64. Appended
    // rids never decrease (the log buffer and replay's drop log both
    // search them as sorted): refuse it.
    if (rid_delta > ~lastRid_)
        return false;
    out.rid = lastRid_ + rid_delta;
    lastRid_ = out.rid;
    out.wrapper = flags & kSbWrapper;
    out.consumesVersion = flags & kSbConsumesVersion;
    out.syscall =
        static_cast<SyscallKind>((flags >> kSbSyscallShift) & 0x3);
    out.caKind = static_cast<HighLevelKind>((flags >> kSbCaKindShift) & 0x3);
    std::uint8_t b = 0;
    if ((flags & kSbDst) && c.getByte(b))
        out.dst = b;
    if ((flags & kSbSrc) && c.getByte(b))
        out.src = b;
    if ((flags & kSbSize) && c.getByte(b))
        out.size = b;
    std::uint64_t v = 0;
    if (flags & kSbValue) {
        if (!c.getVarint(v))
            return false;
        out.value = v;
    }
    Addr sb_addr = 0;
    if (flags & kSbAddr) {
        if (!c.getVarint(sb_addr))
            return false;
    }
    AddrRange sb_range{};
    if (flags & kSbRange) {
        if (!c.getVarint(sb_range.begin) || !c.getVarint(sb_range.end))
            return false;
    }
    if (flags & kSbCaSeq) {
        if (!c.getVarint(v))
            return false;
        out.caSeq = v;
    }
    if (flags & kSbVersionTag) {
        std::uint64_t vtid = 0, vrid = 0;
        if (!c.getVarint(vtid) || !c.getVarint(vrid))
            return false;
        out.setVersion(VersionTag{static_cast<ThreadId>(vtid), vrid});
    }
    std::uint64_t arc_count = 0;
    if (flags & kSbArcs) {
        if (!c.getVarint(arc_count) || arc_count > 4096)
            return false;
    }

    // ---- payload (exactly payload_bytes long) ----
    if (c.remaining() < payload_bytes)
        return false;
    ByteCursor pl(c.pos, payload_bytes);
    c.pos += payload_bytes;

    std::uint8_t header = 0;
    if (!pl.getByte(header))
        return false;
    out.type = static_cast<EventType>(header & kCodecTypeMask);
    if (static_cast<unsigned>(out.type) >
        static_cast<unsigned>(EventType::kProduceVersion))
        return false;
    bool hit = header & kCodecHitBit;
    bool ok = true;

    switch (out.type) {
      case EventType::kLoad:
        out.addr = decodeAddr(pred_[0], hit, pl, ok);
        break;
      case EventType::kStore:
        out.addr = decodeAddr(pred_[1], hit, pl, ok);
        break;
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
        out.addr = decodeAddr(pred_[2], hit, pl, ok);
        break;
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd:
      case EventType::kCaBegin:
      case EventType::kCaEnd: {
        Addr begin = decodeAddr(pred_[2], hit, pl, ok);
        std::uint64_t len = 0;
        ok = ok && pl.getVarint(len);
        out.setRange(AddrRange{begin, begin + len});
        break;
      }
      case EventType::kProduceVersion: {
        out.addr = decodeAddr(pred_[2], hit, pl, ok);
        std::uint32_t ignored = 0;
        ok = ok && pl.getFixed32(ignored);
        break;
      }
      default:
        break;
    }
    if (!ok)
        return false;

    if (flags & kSbAddr)
        out.addr = sb_addr;
    if (flags & kSbRange)
        out.setRange(sb_range);

    if (arc_count != 0) {
        std::vector<DepArc> &arcs = out.mutableArcs();
        arcs.reserve(arc_count);
        for (std::uint64_t i = 0; i < arc_count; ++i) {
            std::uint8_t tid = 0;
            std::uint64_t rid = 0;
            if (!pl.getByte(tid) || !pl.getVarint(rid))
                return false;
            arcs.push_back(DepArc{tid, rid});
        }
    }
    if (out.consumesVersion || out.version().valid()) {
        std::uint32_t ignored = 0;
        if (!pl.getFixed32(ignored))
            return false;
    }

    // The decoder must consume exactly what the encoder charged.
    return pl.atEnd();
}

} // namespace paralog::trace
