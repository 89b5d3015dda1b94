/**
 * @file
 * Q32.32 fixed-point helpers for the parameter server's gradient
 * sums (ServerState and ServerShard share them, so both produce the
 * same bits for the same pushes).
 *
 * A value x is stored as the 64-bit integer round(x * 2^32). Sums of
 * stored values are integer sums: exact, associative, and independent
 * of the order pushes arrive in, which is what lets the sharded server
 * keep one cumulative sum per unit and hand each worker the exact
 * difference since its last pull.
 *
 * Range and rejection: a contribution x = decoded / workers is
 * accepted only when |x| < 2^19, i.e. |x * 2^32| < 2^51, the domain of
 * the branch-free conversion below; NaN and +-Inf fail the same
 * compare. A push is also rejected if it would take any worker's
 * pending value to 2^30 or more in magnitude (kPendingLimit), so every
 * pending value, and a push added to one, fits in int64 without
 * overflow. Sums are kept in unsigned (wrapping) arithmetic, so a
 * difference of two sums is exact whenever the true difference fits
 * in int64, which the pending bound guarantees.
 *
 * The library builds without -march=native, so every conversion is a
 * straight-line integer/double sequence the compiler can vectorize
 * with baseline SSE2 (no int64<->double instructions needed).
 */
#ifndef ROG_CORE_FIXED_POINT_HPP
#define ROG_CORE_FIXED_POINT_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace rog {
namespace core {
namespace fixed {

/** 2^32: one unit of the value in Q32.32. */
inline constexpr double kOne = 4294967296.0;
/** 2^-32. */
inline constexpr double kInvOne = 1.0 / 4294967296.0;

/** Q32.32 factor that folds the 1/workers average into conversion. */
inline double
averagingScale(std::size_t workers)
{
    return kOne / static_cast<double>(workers);
}

/**
 * Exclusive bound on |decoded| for @p workers: 2^19 * workers, exact
 * as a float for any workers below 2^24. Any float below it times
 * averagingScale() stays under 2^51, even with that scale rounded.
 */
inline float
inputLimit(std::size_t workers)
{
    return static_cast<float>(524288.0 * static_cast<double>(workers));
}

/**
 * Largest |src[j]|, as the float's bit pattern with the sign cleared
 * (0 for n == 0). Non-negative floats order like their bit patterns,
 * with +Inf and then NaN above every finite value, so an int32 max
 * does the job and vectorizes with baseline SSE2, where a float max
 * reduction would not.
 */
inline std::int32_t
maxAbsBits(const float *src, std::size_t n)
{
    std::int32_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::int32_t a =
            std::bit_cast<std::int32_t>(src[j]) & 0x7FFFFFFF;
        m = a > m ? a : m;
    }
    return m;
}

/** True iff every src[j] is finite and |src[j]| < @p limit. */
inline bool
representable(const float *src, std::size_t n, float limit)
{
    return maxAbsBits(src, n) < std::bit_cast<std::int32_t>(limit);
}

/** round-to-nearest-even(v) for |v| < 2^51: adding 1.5 * 2^52 puts v
 *  in the binade whose ulp is 1, so the mantissa bits are the integer. */
inline std::uint64_t
toFixed(double v)
{
    constexpr double kMagic = 6755399441055744.0; // 1.5 * 2^52
    return std::bit_cast<std::uint64_t>(v + kMagic) -
           std::bit_cast<std::uint64_t>(kMagic);
}

/** dst[j] = Q(src[j] * scale). @pre every |src[j] * scale| < 2^51. */
inline void
convertScaled(std::uint64_t *dst, const float *src, std::size_t n,
              double scale)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = toFixed(static_cast<double>(src[j]) * scale);
}

/** acc[j] += Q(src[j] * scale). @pre every |src[j] * scale| < 2^51. */
inline void
addScaled(std::uint64_t *acc, const float *src, std::size_t n,
          double scale)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] += toFixed(static_cast<double>(src[j]) * scale);
}

/**
 * Exclusive bound on the Q32.32 magnitude of a pending value: 2^62,
 * i.e. 2^30 in real value.
 */
inline constexpr std::int64_t kPendingLimit = std::int64_t{1} << 62;

/**
 * Largest stored |values[j]| (0 if empty), or kPendingLimit if any
 * value is at or past the limit.
 */
inline std::int64_t
widestPending(std::span<const std::int64_t> values)
{
    std::int64_t m = 0;
    for (std::int64_t v : values) {
        if (!(v < kPendingLimit && v > -kPendingLimit))
            return kPendingLimit;
        m = std::max(m, v < 0 ? -v : v);
    }
    return m;
}

/**
 * Largest |(a[j] - b[j]) + q[j]|: the widest of one worker's pending
 * values after adding the converted push q (b is a watermark, or
 * zeros for a per-copy sum). @pre |a[j] - b[j]| < kPendingLimit and
 * |q[j]| < 2^51, so nothing overflows.
 */
inline std::int64_t
widestAfterAdd(const std::uint64_t *a, const std::uint64_t *b,
               const std::uint64_t *q, std::size_t n)
{
    std::int64_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t v = static_cast<std::int64_t>(a[j] - b[j]) +
                               static_cast<std::int64_t>(q[j]);
        const std::int64_t mag = v < 0 ? -v : v;
        m = mag > m ? mag : m;
    }
    return m;
}

/**
 * The double nearest to q * 2^-32, for any int64 q: split q into a
 * signed high and unsigned low 32-bit half and build each as an exact
 * double from its bits (2^52 + h), so only the final add rounds.
 */
inline double
toDouble(std::uint64_t q)
{
    constexpr std::uint64_t kExp52 = 0x4330000000000000ull; // 2^52
    const double hi =
        std::bit_cast<double>(kExp52 | ((q >> 32) ^ 0x80000000ull)) -
        (4503599627370496.0 + 2147483648.0); // 2^52 + 2^31
    const double lo =
        std::bit_cast<double>(kExp52 | (q & 0xFFFFFFFFull)) -
        4503599627370496.0;
    return hi + lo * kInvOne;
}

/** out[j] = float(a[j] - b[j]), the exact difference of two sums. */
inline void
differenceToFloats(const std::uint64_t *a, const std::uint64_t *b,
                   float *out, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        out[j] = static_cast<float>(toDouble(a[j] - b[j]));
}

/**
 * Mean |a[j] - b[j]| as a real value, summed in the integer domain:
 * the high and low halves of each |difference| accumulate separately
 * (no overflow below 2^32 elements), and only the two totals convert.
 */
inline double
meanAbsDifference(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t n)
{
    if (n == 0)
        return 0.0;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t d = a[j] - b[j];
        const std::uint64_t sign = 0 - (d >> 63);
        const std::uint64_t mag = (d ^ sign) - sign;
        hi += mag >> 32;
        lo += mag & 0xFFFFFFFFull;
    }
    const double total = static_cast<double>(hi) +
                         static_cast<double>(lo) * kInvOne;
    return total / static_cast<double>(n);
}

} // namespace fixed
} // namespace core
} // namespace rog

#endif // ROG_CORE_FIXED_POINT_HPP
