#include "sort/comparator.h"

#include <cstring>

#include "common/logging.h"
#include "common/order_key.h"

namespace skyline {

uint64_t RowOrdering::PrefixKey(const char* row) const {
  return has_key() ? DescendingPrefixFromDouble(Key(row)) : 0;
}

LexicographicOrdering::LexicographicOrdering(const Schema* schema,
                                             std::vector<SortKey> keys)
    : schema_(schema), keys_(std::move(keys)) {
  SKYLINE_CHECK(!keys_.empty()) << "lexicographic ordering needs keys";
  for (const auto& key : keys_) {
    SKYLINE_CHECK_LT(key.column, schema_->num_columns());
  }
  switch (schema_->column(keys_[0].column).type) {
    case ColumnType::kInt32:
      prefix_columns_ = 1;
      if (keys_.size() > 1 &&
          schema_->column(keys_[1].column).type == ColumnType::kInt32) {
        prefix_columns_ = 2;
      }
      break;
    case ColumnType::kInt64:
    case ColumnType::kFloat64:
      prefix_columns_ = 1;
      break;
    case ColumnType::kFixedString:
      break;
  }
}

uint64_t LexicographicOrdering::PrefixKey(const char* row) const {
  constexpr uint64_t kSign64 = uint64_t{1} << 63;
  uint64_t prefix = 0;
  for (size_t i = 0; i < prefix_columns_; ++i) {
    const SortKey& key = keys_[i];
    const char* field = row + schema_->offset(key.column);
    switch (schema_->column(key.column).type) {
      case ColumnType::kInt32: {
        int32_t v;
        std::memcpy(&v, field, sizeof(v));
        uint32_t u = static_cast<uint32_t>(v) ^ 0x80000000u;
        if (key.descending) u = ~u;
        prefix |= static_cast<uint64_t>(u) << (i == 0 ? 32 : 0);
        break;
      }
      case ColumnType::kInt64: {
        int64_t v;
        std::memcpy(&v, field, sizeof(v));
        prefix = static_cast<uint64_t>(v) ^ kSign64;
        if (key.descending) prefix = ~prefix;
        break;
      }
      case ColumnType::kFloat64: {
        double v;
        std::memcpy(&v, field, sizeof(v));
        prefix = static_cast<uint64_t>(Float64TotalOrderKey(v)) ^ kSign64;
        if (key.descending) prefix = ~prefix;
        break;
      }
      case ColumnType::kFixedString:
        break;
    }
  }
  return prefix;
}

int LexicographicOrdering::Compare(const char* a, const char* b) const {
  for (const auto& key : keys_) {
    int c = schema_->CompareColumn(key.column, a, b);
    if (c != 0) return key.descending ? -c : c;
  }
  return 0;
}

}  // namespace skyline
