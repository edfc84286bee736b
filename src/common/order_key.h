#ifndef SKYLINE_COMMON_ORDER_KEY_H_
#define SKYLINE_COMMON_ORDER_KEY_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace skyline {

// Order-key transforms: every MIN/MAX criterion, regardless of column
// type, lowers to a signed integer key such that "better" is always
// "signed-greater". This is what lets one columnar kernel serve all
// specs — int32 criteria become int32 keys, everything else becomes
// int64 keys, and dominance over any mix reduces to integer compares.
//
//   int32/int64 MAX:  key = v          (bigger is better)
//   int32/int64 MIN:  key = ~v         (order-reversing bijection)
//   float64:          total-order bits first, then the same ~ for MIN
//   string DIFF:      dictionary code (DIFF needs equality only)

/// Totally ordered int64 image of a double: monotone over all finite
/// values and infinities, with -0.0 < +0.0 strictly (keys -1 and 0) and
/// NaNs ordered by payload beyond the infinities. IEEE-754 doubles with
/// the sign bit clear already compare like integers; negative values
/// compare reversed, so flip their magnitude bits and map them below
/// the non-negatives.
inline int64_t Float64TotalOrderKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits >> 63) == 0) {
    return static_cast<int64_t>(bits);
  }
  return static_cast<int64_t>(~bits ^ 0x8000000000000000ULL);
}

/// Inverse of Float64TotalOrderKey; used to materialize synthetic
/// "corner" rows from zone-map bounds.
inline double DoubleFromTotalOrderKey(int64_t key) {
  uint64_t bits = static_cast<uint64_t>(key);
  if ((bits >> 63) == 0) {
    // Non-negative keys came from doubles with the sign bit clear.
  } else {
    bits = ~(bits ^ 0x8000000000000000ULL);
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// int32 MIN/MAX order key: signed-greater key == better value.
inline int32_t OrderKey32(int32_t v, bool max) { return max ? v : ~v; }

/// int64 MIN/MAX order key.
inline int64_t OrderKey64(int64_t v, bool max) { return max ? v : ~v; }

/// float64 MIN/MAX order key through the total order.
inline int64_t OrderKeyFromDouble(double v, bool max) {
  const int64_t k = Float64TotalOrderKey(v);
  return max ? k : ~k;
}

/// Unsigned sort prefix of a double key under "larger key first": a
/// strictly larger value maps to a strictly smaller prefix, and values
/// equal under `==` map to one prefix (-0.0 and +0.0 share 0.0's). Every
/// NaN maps to the largest prefix, so NaN keys sort last, together.
inline uint64_t DescendingPrefixFromDouble(double v) {
  if (std::isnan(v)) return ~uint64_t{0};
  if (v == 0.0) v = 0.0;
  return ~(static_cast<uint64_t>(Float64TotalOrderKey(v)) ^
           0x8000000000000000ULL);
}

/// Three-way compare of doubles under the total order (the engine-wide
/// comparison semantics for kFloat64 columns; row and columnar paths
/// must agree bit-for-bit, including NaN and -0.0/+0.0).
inline int CompareDoubleTotalOrder(double a, double b) {
  const int64_t ka = Float64TotalOrderKey(a);
  const int64_t kb = Float64TotalOrderKey(b);
  return ka < kb ? -1 : (ka > kb ? 1 : 0);
}

}  // namespace skyline

#endif  // SKYLINE_COMMON_ORDER_KEY_H_
