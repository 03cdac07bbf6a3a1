#include "common/lz.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hpp"
#include "common/varint.hpp"

namespace paralog {

namespace {

// Greedy hash-table matcher: one candidate position per 4-byte-prefix
// hash bucket, most recent wins. The columnar op streams this coder is
// pointed at are dominated by short repeating patterns, where the most
// recent occurrence is also the one giving self-overlapping run
// matches, so a single-entry table performs within a few percent of a
// chain while keeping compression O(n). Entries hold position + 1 in
// 32 bits (0 = empty); the table lives per thread, allocated once and
// zeroed per call.
inline constexpr std::size_t kHashBits = 15;

/** Output slack lzDecompress() allocates past rawLen, and the fixed
 *  copy width of its short tokens. */
inline constexpr std::size_t kLzSlack = 16;

inline std::uint32_t
hash4(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Length of the common prefix of @p a and @p b, where @p b is
 *  followed by @p avail readable bytes and @p a < @p b: compared eight
 *  bytes at a time, the rest byte by byte. */
inline std::size_t
matchLength(const std::uint8_t *a, const std::uint8_t *b, std::size_t avail)
{
    static_assert(std::endian::native == std::endian::little,
                  "the first differing byte is the lowest set one");
    std::size_t len = 0;
    for (; len + 8 <= avail; len += 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a + len, 8);
        std::memcpy(&y, b + len, 8);
        if (x != y)
            return len + static_cast<std::size_t>(std::countr_zero(x ^ y)) / 8;
    }
    while (len < avail && a[len] == b[len])
        ++len;
    return len;
}

} // namespace

void
lzCompress(const std::uint8_t *data, std::size_t n,
           std::vector<std::uint8_t> &out)
{
    putVarint(out, n);
    if (n == 0)
        return;
    PARALOG_ASSERT(n < UINT32_MAX, "lzCompress input over 4 GiB");

    thread_local std::vector<std::uint32_t> table(std::size_t(1)
                                                  << kHashBits);
    std::fill(table.begin(), table.end(), 0);
    std::size_t pos = 0;
    std::size_t lit_start = 0;

    auto flush = [&](std::size_t lit_end) {
        putVarint(out, lit_end - lit_start);
        out.insert(out.end(), data + lit_start, data + lit_end);
    };

    while (pos + kLzMinMatch <= n) {
        std::uint32_t h = hash4(data + pos);
        const std::uint32_t cand1 = table[h]; // candidate + 1
        table[h] = static_cast<std::uint32_t>(pos + 1);

        std::size_t len = 0;
        if (cand1 != 0 &&
            std::memcmp(data + cand1 - 1, data + pos, kLzMinMatch) == 0)
            len = kLzMinMatch +
                  matchLength(data + cand1 - 1 + kLzMinMatch,
                              data + pos + kLzMinMatch,
                              n - pos - kLzMinMatch);
        if (len < kLzMinMatch) {
            ++pos;
            continue;
        }
        const std::size_t cand = cand1 - 1;
        flush(pos);
        putVarint(out, len - kLzMinMatch);
        putVarint(out, pos - cand);
        // Seed the table inside the match so the next repeat of this
        // region is found; sampling every other byte keeps long runs
        // cheap to skip over.
        std::size_t stop = pos + len;
        for (pos += 1; pos + kLzMinMatch <= stop; pos += 2)
            table[hash4(data + pos)] = static_cast<std::uint32_t>(pos + 1);
        pos = stop;
        lit_start = pos;
    }
    // Trailing literals (none when the input ended exactly on a match —
    // the decoder stops at rawLen and expects no empty tail token).
    if (lit_start < n)
        flush(n);
}

bool
lzDecompress(const std::uint8_t *data, std::size_t n,
             std::vector<std::uint8_t> &out, std::size_t max_out)
{
    ByteCursor c(data, n);
    std::uint64_t raw_len = 0;
    if (!c.getVarint(raw_len) || raw_len > max_out ||
        raw_len > out.max_size() - kLzSlack)
        return false;
    const std::size_t raw = static_cast<std::size_t>(raw_len);
    // Sized once; the slack past rawLen lets a short token copy a
    // fixed kLzSlack bytes (one unaligned 16-byte move) instead of its
    // exact length. The bytes it writes past the token are rewritten
    // by the next token before anything reads them, or trimmed below.
    out.resize(raw + kLzSlack);
    std::uint8_t *const base = out.data();
    std::size_t w = 0; // bytes reconstructed so far

    while (w < raw) {
        std::uint64_t lit = 0;
        if (!c.getVarint(lit) || lit > c.remaining() || lit > raw - w)
            return false;
        if (lit <= kLzSlack && c.remaining() >= kLzSlack)
            std::memcpy(base + w, c.pos, kLzSlack);
        else if (lit != 0)
            std::memcpy(base + w, c.pos, static_cast<std::size_t>(lit));
        c.pos += lit;
        w += static_cast<std::size_t>(lit);
        if (w == raw)
            break;

        std::uint64_t len = 0, dist = 0;
        if (!c.getVarint(len) || !c.getVarint(dist))
            return false;
        len += kLzMinMatch;
        if (dist == 0 || dist > w || len > raw - w)
            return false;
        std::uint8_t *dst = base + w;
        const std::uint8_t *src = dst - dist;
        if (len <= kLzSlack && dist >= kLzSlack) {
            std::memcpy(dst, src, kLzSlack);
        } else if (dist >= len) {
            std::memcpy(dst, src, static_cast<std::size_t>(len));
        } else {
            // Self-overlapping (dist < len): each byte may read one
            // this match wrote, so copy byte-wise.
            for (std::uint64_t i = 0; i < len; ++i)
                dst[i] = src[i];
        }
        w += static_cast<std::size_t>(len);
    }
    if (!c.atEnd())
        return false;
    out.resize(raw);
    return true;
}

} // namespace paralog
