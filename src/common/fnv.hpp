/**
 * @file
 * The FNV constants of every 64-bit fold in the tree: the trace
 * header's config fingerprint, the shadow fingerprint, the violation
 * set fingerprint and the scheduler's stall signature.
 */

#ifndef PARALOG_COMMON_FNV_HPP
#define PARALOG_COMMON_FNV_HPP

#include <cstdint>

namespace paralog {

/** The project's FNV basis: the FNV-1a 64-bit offset basis
 *  (kFnv1aOffsetBasis) with its last digit dropped. The trace header's
 *  config fingerprint and the shadow fingerprint start here, and every
 *  recording, footer and golden pins the result, so another writer of
 *  the format must use it, not the textbook basis. */
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/** The textbook FNV-1a 64-bit offset basis, where the violation set
 *  fingerprint (ViolationLog::setFingerprint) starts. */
inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;

/** The FNV 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

} // namespace paralog

#endif // PARALOG_COMMON_FNV_HPP
