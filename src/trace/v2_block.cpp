#include "trace/v2_block.hpp"

#include <array>
#include <cstring>

#include "common/lz.hpp"
#include "common/varint.hpp"
#include "trace/codec.hpp"
#include "trace/format.hpp"

namespace paralog::trace {

namespace {

/** Skip one varint; false on truncation or over-long encoding. */
bool
skipVarint(ByteCursor &c)
{
    std::uint64_t v = 0;
    return c.getVarint(v);
}

bool
skipBytes(ByteCursor &c, std::uint64_t n)
{
    if (c.remaining() < n)
        return false;
    c.pos += n;
    return true;
}

/** Skip an append body: charged-bytes varint, sideband, payload. The
 *  payload is exactly the charged size (codec.hpp invariant), so the
 *  scan needs no predictor state. */
bool
skipAppendBody(ByteCursor &c)
{
    std::uint64_t charged = 0, flags = 0;
    if (!c.getVarint(charged) || !c.getVarint(flags) || !skipVarint(c))
        return false; // charged, sideband flags, rid delta
    std::uint64_t fixed = 0;
    fixed += (flags & kSbDst) ? 1 : 0;
    fixed += (flags & kSbSrc) ? 1 : 0;
    fixed += (flags & kSbSize) ? 1 : 0;
    if (!skipBytes(c, fixed))
        return false;
    if ((flags & kSbValue) && !skipVarint(c))
        return false;
    if ((flags & kSbAddr) && !skipVarint(c))
        return false;
    if ((flags & kSbRange) && !(skipVarint(c) && skipVarint(c)))
        return false;
    if ((flags & kSbCaSeq) && !skipVarint(c))
        return false;
    if ((flags & kSbVersionTag) && !(skipVarint(c) && skipVarint(c)))
        return false;
    if (flags & kSbArcs) {
        std::uint64_t arcs = 0;
        if (!c.getVarint(arcs) || arcs > 4096)
            return false;
    }
    return skipBytes(c, charged);
}

bool
skipOpBody(OpCode op, ByteCursor &c)
{
    switch (op) {
      case OpCode::kRetire:
      case OpCode::kVisLimit:
        return skipVarint(c);
      case OpCode::kAppend:
      case OpCode::kAppendCa:
        return skipAppendBody(c);
      case OpCode::kAttachArcs: {
        std::uint64_t n = 0;
        if (!skipVarint(c) || !c.getVarint(n) || n > 4096)
            return false;
        for (std::uint64_t i = 0; i < n; ++i)
            if (!skipBytes(c, 1) || !skipVarint(c))
                return false;
        return true;
      }
      case OpCode::kAnnotateConsume:
        return skipVarint(c) && skipVarint(c) && skipVarint(c);
      case OpCode::kInsertProduce:
        return skipVarint(c) && skipVarint(c) && skipVarint(c) &&
               skipVarint(c) && skipBytes(c, 1);
      case OpCode::kCaBroadcast: {
        std::uint64_t n = 0;
        if (!(skipVarint(c) && skipVarint(c) && skipBytes(c, 1) &&
              skipVarint(c) && skipVarint(c)))
            return false;
        if (!c.getVarint(n) || n > 1024)
            return false;
        for (std::uint64_t i = 0; i < n; ++i)
            if (!skipVarint(c))
                return false;
        return true;
      }
    }
    return false;
}

/** Copy the next varint of @p src into @p dst; false on truncation. */
bool
copyVarint(ByteCursor &src, std::vector<std::uint8_t> &dst)
{
    const std::uint8_t *start = src.pos;
    if (!skipVarint(src))
        return false;
    dst.insert(dst.end(), start, src.pos);
    return true;
}

/**
 * Re-interleave @p ops ops from the column cursors @p col into exactly
 * @p v1_bytes of v1 op bytes (replacing @p out's contents). The output
 * is sized up front and every write is checked against it before it is
 * made; false on a column over/underrun, an opcode above kMaxOpCode,
 * leftover column bytes or an output not filled exactly.
 */
bool
interleaveColumns(std::array<ByteCursor, kColumnCount> &col,
                  std::uint64_t ops, std::size_t v1_bytes,
                  std::vector<std::uint8_t> &out)
{
    out.resize(v1_bytes);
    std::uint8_t *o = out.data();
    std::uint8_t *const o_end = o + out.size();
    // Varints (nearly all one byte) copy byte by byte, within
    // ByteCursor::getVarint's limits: truncated or over 10 bytes fails.
    auto copy_varint = [&o, o_end](ByteCursor &src) {
        for (int i = 0; i < 10; ++i) {
            if (src.atEnd() || o == o_end)
                return false;
            const std::uint8_t b = *src.pos++;
            *o++ = b;
            if (!(b & 0x80))
                return true;
        }
        return false; // over-long encoding
    };
    for (std::uint64_t i = 0; i < ops; ++i) {
        std::uint8_t opcode = 0;
        if (!col[kColOpcode].getByte(opcode) || opcode > kMaxOpCode ||
            o == o_end)
            return false;
        *o++ = opcode;
        if (!copy_varint(col[kColGseq]) || !copy_varint(col[kColCycle]) ||
            !copy_varint(col[kColLgStep]))
            return false;
        std::uint64_t body_len = 0;
        ByteCursor &body = col[kColBody];
        if (!col[kColBodyLen].getVarint(body_len) ||
            body_len > body.remaining() ||
            body_len > static_cast<std::uint64_t>(o_end - o))
            return false;
        if (body_len != 0)
            std::memcpy(o, body.pos, static_cast<std::size_t>(body_len));
        o += body_len;
        body.pos += body_len;
    }
    for (const auto &cc : col)
        if (!cc.atEnd())
            return false; // leftover column bytes: corrupt framing
    return o == o_end;
}

} // namespace

bool
scanOneOp(const std::uint8_t *&pos, const std::uint8_t *end,
          std::size_t &prelude_end)
{
    ByteCursor c(pos, static_cast<std::size_t>(end - pos));
    std::uint8_t opcode = 0;
    if (!c.getByte(opcode) || opcode > kMaxOpCode)
        return false;
    if (!skipVarint(c) || !skipVarint(c) || !skipVarint(c))
        return false; // d_gseq, d_cycle, d_lgStep
    prelude_end = static_cast<std::size_t>(c.pos - pos);
    if (!skipOpBody(static_cast<OpCode>(opcode), c))
        return false;
    pos = c.pos;
    return true;
}

void
encodeV2Payload(const OpColumns &c, std::vector<std::uint8_t> &out)
{
    std::vector<std::uint8_t> section;
    section.reserve(c.v1Bytes + c.ops + 64);
    putVarint(section, c.ops);
    for (const auto &col : c.col) {
        putVarint(section, col.size());
        section.insert(section.end(), col.begin(), col.end());
    }
    out.clear();
    putVarint(out, c.v1Bytes);
    lzCompress(section.data(), section.size(), out);
}

bool
encodeV1Payload(const OpColumns &c, std::vector<std::uint8_t> &out)
{
    std::array<ByteCursor, kColumnCount> col;
    for (std::size_t i = 0; i < kColumnCount; ++i)
        col[i] = ByteCursor(c.col[i].data(), c.col[i].size());
    return interleaveColumns(col, c.ops, c.v1Bytes, out);
}

bool
encodeOpsBlock(const std::uint8_t *v1, std::size_t n,
               std::vector<std::uint8_t> &out)
{
    out.clear();
    OpColumns c;
    const std::uint8_t *p = v1;
    const std::uint8_t *end = v1 + n;
    while (p < end) {
        const std::uint8_t *op_start = p;
        std::size_t prelude_end = 0;
        if (!scanOneOp(p, end, prelude_end))
            return false;
        ++c.ops;

        c.col[kColOpcode].push_back(op_start[0]);
        ByteCursor pre(op_start + 1, prelude_end - 1);
        if (!copyVarint(pre, c.col[kColGseq]) ||
            !copyVarint(pre, c.col[kColCycle]) ||
            !copyVarint(pre, c.col[kColLgStep]))
            return false;
        std::size_t body_len =
            static_cast<std::size_t>(p - op_start) - prelude_end;
        putVarint(c.col[kColBodyLen], body_len);
        c.col[kColBody].insert(c.col[kColBody].end(), op_start + prelude_end,
                               p);
    }
    c.v1Bytes = n;
    encodeV2Payload(c, out);
    return true;
}

bool
parseOpsBlock(const std::uint8_t *v2, std::size_t n,
              std::vector<std::uint8_t> &section, std::size_t max_v1_bytes,
              OpsBlock &out)
{
    ByteCursor c(v2, n);
    if (!c.getVarint(out.v1Len) || out.v1Len > max_v1_bytes)
        return false;

    // The column section is the v1 bytes plus one length varint per op
    // plus framing; 2x + slack is a generous structural ceiling that
    // still stops a hostile stream from forcing a huge allocation.
    if (!lzDecompress(c.pos, c.remaining(), section,
                      2 * static_cast<std::size_t>(out.v1Len) + 1024))
        return false;

    ByteCursor s(section.data(), section.size());
    if (!s.getVarint(out.opCount) || out.opCount > out.v1Len)
        return false;
    std::uint64_t v1_bytes = 0;
    for (std::size_t k = 0; k < kColumnCount; ++k) {
        std::uint64_t len = 0;
        if (!s.getVarint(len) || len > s.remaining())
            return false;
        out.col[k] = ByteCursor(s.pos, static_cast<std::size_t>(len));
        s.pos += len;
        if (k != kColBodyLen)
            v1_bytes += len;
    }
    // One opcode byte per op, and every column byte but the body
    // lengths is one v1 byte: a section breaking either cannot
    // interleave into exactly v1Len bytes, so it fails here, before its
    // first op.
    return s.atEnd() && out.col[kColOpcode].remaining() == out.opCount &&
           v1_bytes == out.v1Len;
}

bool
decodeOpsBlock(const std::uint8_t *v2, std::size_t n,
               std::vector<std::uint8_t> &out,
               std::size_t max_v1_bytes)
{
    std::vector<std::uint8_t> section;
    OpsBlock b;
    return parseOpsBlock(v2, n, section, max_v1_bytes, b) &&
           interleaveColumns(b.col, b.opCount,
                             static_cast<std::size_t>(b.v1Len), out);
}

} // namespace paralog::trace
