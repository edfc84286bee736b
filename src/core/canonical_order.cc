#include "core/canonical_order.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "relation/canonical_key.h"

namespace skyline {
namespace {

/// One criterion resolved to raw layout, precomputed so the sort's
/// comparator does no per-call name lookups.
struct CanonicalKeyColumn {
  size_t offset = 0;
  size_t width = 0;
  ColumnType type = ColumnType::kInt32;
  bool descending = false;  // MAX criteria serve best-first
};

std::vector<CanonicalKeyColumn> ResolveKeyColumns(const SkylineSpec& spec) {
  const Schema& schema = spec.schema();
  std::vector<CanonicalKeyColumn> keys;
  keys.reserve(spec.criteria().size());
  for (const Criterion& criterion : spec.criteria()) {
    const size_t col = schema.ColumnIndex(criterion.column).value();
    keys.push_back({schema.offset(col), schema.column_width(col),
                    schema.column(col).type,
                    criterion.directive == Directive::kMax});
  }
  return keys;
}

int CompareResolved(const std::vector<CanonicalKeyColumn>& keys,
                    size_t row_width, const char* a, const char* b) {
  for (const CanonicalKeyColumn& key : keys) {
    if (key.type == ColumnType::kFixedString) {
      const int cmp = std::memcmp(a + key.offset, b + key.offset, key.width);
      if (cmp != 0) return cmp;
      continue;
    }
    const int64_t ka = CanonicalKeyOf(key.type, a + key.offset);
    const int64_t kb = CanonicalKeyOf(key.type, b + key.offset);
    if (ka != kb) {
      if (key.descending) return ka < kb ? 1 : -1;
      return ka < kb ? -1 : 1;
    }
  }
  return std::memcmp(a, b, row_width);
}

}  // namespace

int CompareRowsCanonical(const SkylineSpec& spec, const char* a,
                         const char* b) {
  return CompareResolved(ResolveKeyColumns(spec), spec.schema().row_width(),
                         a, b);
}

void SortSkylineRowsCanonical(const SkylineSpec& spec,
                              std::vector<char>* rows) {
  const size_t width = spec.schema().row_width();
  if (width == 0 || rows->empty()) return;
  const std::vector<CanonicalKeyColumn> keys = ResolveKeyColumns(spec);
  const size_t count = rows->size() / width;
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  const char* base = rows->data();
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
    return CompareResolved(keys, width, base + i * width,
                           base + j * width) < 0;
  });
  std::vector<char> sorted(rows->size());
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(sorted.data() + i * width, base + order[i] * width, width);
  }
  rows->swap(sorted);
}

}  // namespace skyline
