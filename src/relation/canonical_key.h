#ifndef SKYLINE_RELATION_CANONICAL_KEY_H_
#define SKYLINE_RELATION_CANONICAL_KEY_H_

#include <cstdint>
#include <cstring>

#include "common/order_key.h"
#include "relation/schema.h"

namespace skyline {

/// Canonical ascending int64 key of a numeric column value: raw int32/64
/// values widened, float64 as total-order bits. Matches the key space of
/// the persisted column file and zone maps (strings take the dictionary
/// path instead and are not handled here).
inline int64_t CanonicalKeyOf(ColumnType type, const char* value_bytes) {
  switch (type) {
    case ColumnType::kInt32: {
      int32_t v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return v;
    }
    case ColumnType::kInt64: {
      int64_t v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return v;
    }
    case ColumnType::kFloat64: {
      double v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return Float64TotalOrderKey(v);
    }
    case ColumnType::kFixedString:
      break;
  }
  return 0;
}

/// Inverse of CanonicalKeyOf: materializes a canonical key back into raw
/// column bytes (used to build synthetic corner rows from zone corners).
inline void WriteCanonicalKeyAsRaw(ColumnType type, int64_t key, char* dst) {
  switch (type) {
    case ColumnType::kInt32: {
      const int32_t v = static_cast<int32_t>(key);
      std::memcpy(dst, &v, sizeof(v));
      break;
    }
    case ColumnType::kInt64:
      std::memcpy(dst, &key, sizeof(key));
      break;
    case ColumnType::kFloat64: {
      const double v = DoubleFromTotalOrderKey(key);
      std::memcpy(dst, &v, sizeof(v));
      break;
    }
    case ColumnType::kFixedString:
      break;  // dictionary path writes the bytes directly
  }
}

}  // namespace skyline

#endif  // SKYLINE_RELATION_CANONICAL_KEY_H_
