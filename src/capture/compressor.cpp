#include "capture/compressor.hpp"

#include "common/varint.hpp"

namespace paralog {

static_assert(static_cast<unsigned>(EventType::kProduceVersion) <= 0x1F,
              "EventType no longer fits the codec's 5-bit type field");

PredClass
predClassOf(EventType type)
{
    switch (type) {
      case EventType::kLoad:
        return PredClass::kLoad;
      case EventType::kStore:
        return PredClass::kStore;
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd:
      case EventType::kCaBegin:
      case EventType::kCaEnd:
      case EventType::kProduceVersion:
        return PredClass::kOther;
      default:
        return PredClass::kNone;
    }
}

std::uint32_t
StreamCompressor::addressBytes(StridePredictor &p, Addr addr,
                               std::vector<std::uint8_t> *out, bool &hit)
{
    std::uint32_t cost;
    if (p.hit(addr)) {
        // Stride hit: the address is implied; the 4-bit type code and
        // the hit flag fit in the common single byte.
        cost = 0;
        hit = true;
    } else if (p.valid) {
        std::uint64_t zigzag =
            zigzagEncode(static_cast<std::int64_t>(addr) -
                         static_cast<std::int64_t>(p.lastAddr));
        cost = out ? putVarint(*out, zigzag) : varintSize(zigzag);
    } else {
        cost = out ? putVarint(*out, addr) : varintSize(addr);
    }
    p.advance(addr);
    return cost;
}

std::uint32_t
StreamCompressor::encode(const EventRecord &rec,
                         std::vector<std::uint8_t> *out)
{
    // Every record carries a 1-byte header (4-bit type, register ids /
    // flags packed in the rest). Register-only records need nothing
    // more. The emitted header holds the type and the predictor-hit
    // flag; it is written last (the hit outcome is only known after the
    // address is encoded) into a slot reserved here.
    std::uint32_t bytes = 1;
    std::size_t header_at = 0;
    if (out) {
        header_at = out->size();
        out->push_back(0);
    }
    bool hit = false;

    switch (rec.type) {
      case EventType::kLoad:
        bytes += addressBytes(pred_[0], rec.addr, out, hit);
        break;
      case EventType::kStore:
        bytes += addressBytes(pred_[1], rec.addr, out, hit);
        break;
      case EventType::kMovRR:
      case EventType::kMovImm:
      case EventType::kAlu:
      case EventType::kJump:
        break; // header only
      case EventType::kLockAcquire:
      case EventType::kLockRelease:
      case EventType::kBarrierPass:
        bytes += addressBytes(pred_[2], rec.addr, out, hit);
        break;
      case EventType::kMallocEnd:
      case EventType::kFreeBegin:
      case EventType::kSyscallBegin:
      case EventType::kSyscallEnd:
      case EventType::kCaBegin:
      case EventType::kCaEnd: {
        // Range begin + length, uncompressed-ish.
        const AddrRange range = rec.range();
        bytes += addressBytes(pred_[2], range.begin, out, hit);
        bytes += out ? putVarint(*out, range.size())
                     : varintSize(range.size());
        break;
      }
      case EventType::kProduceVersion:
        bytes += addressBytes(pred_[2], rec.addr, out, hit) + 4;
        if (out)
            putFixed32(*out,
                       static_cast<std::uint32_t>(rec.version().rid));
        break;
      case EventType::kThreadDone:
      case EventType::kThreadSwitch:
      case EventType::kNone:
        break;
    }

    // Dependence arcs: (thread id, record id delta) per arc.
    for (const DepArc &arc : rec.arcs()) {
        bytes += 1;
        if (out)
            out->push_back(static_cast<std::uint8_t>(arc.tid));
        bytes += out ? putVarint(*out, arc.rid) : varintSize(arc.rid);
    }
    if (rec.consumesVersion || rec.version().valid()) {
        bytes += 4;
        if (out)
            putFixed32(*out, static_cast<std::uint32_t>(rec.version().rid));
    }

    if (out)
        (*out)[header_at] =
            static_cast<std::uint8_t>(
                static_cast<unsigned>(rec.type) & kCodecTypeMask) |
            (hit ? kCodecHitBit : 0);

    bytes_ += bytes;
    ++records_;
    return bytes;
}

void
StreamCompressor::reset()
{
    pred_.fill(StridePredictor{});
    bytes_ = 0;
    records_ = 0;
}

} // namespace paralog
