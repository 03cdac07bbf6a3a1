#include "common/lz.hpp"

#include <cstring>

#include "common/varint.hpp"

namespace paralog {

namespace {

// Greedy hash-table matcher: one candidate position per 4-byte-prefix
// hash bucket, most recent wins. The columnar op streams this coder is
// pointed at are dominated by short repeating patterns, where the most
// recent occurrence is also the one giving self-overlapping run
// matches, so a single-entry table performs within a few percent of a
// chain while keeping compression O(n).
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

} // namespace

void
lzCompress(const std::uint8_t *data, std::size_t n,
           std::vector<std::uint8_t> &out)
{
    putVarint(out, n);
    if (n == 0)
        return;

    std::vector<std::size_t> table(std::size_t(1) << kHashBits,
                                   SIZE_MAX);
    std::size_t pos = 0;
    std::size_t lit_start = 0;

    auto flush = [&](std::size_t lit_end) {
        putVarint(out, lit_end - lit_start);
        out.insert(out.end(), data + lit_start, data + lit_end);
    };

    while (pos + kLzMinMatch <= n) {
        std::uint32_t h = hash4(data + pos);
        std::size_t cand = table[h];
        table[h] = pos;

        std::size_t len = 0;
        if (cand != SIZE_MAX &&
            std::memcmp(data + cand, data + pos, kLzMinMatch) == 0) {
            len = kLzMinMatch;
            while (pos + len < n && data[cand + len] == data[pos + len])
                ++len;
        }
        if (len < kLzMinMatch) {
            ++pos;
            continue;
        }
        flush(pos);
        putVarint(out, len - kLzMinMatch);
        putVarint(out, pos - cand);
        // Seed the table inside the match so the next repeat of this
        // region is found; sampling every other byte keeps long runs
        // cheap to skip over.
        std::size_t stop = pos + len;
        for (pos += 1; pos + kLzMinMatch <= stop; pos += 2)
            table[hash4(data + pos)] = pos;
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
