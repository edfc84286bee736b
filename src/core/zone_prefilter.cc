#include "core/zone_prefilter.h"

#include <cstring>

#include "core/dominance_batch.h"
#include "relation/canonical_key.h"

namespace skyline {

BlockCornerBuilder::BlockCornerBuilder(
    const SkylineSpec* spec, std::shared_ptr<const TableColumnZones> zones)
    : spec_(spec), zones_(std::move(zones)) {
  usable_ = zones_ != nullptr &&
            zones_->block_rows == DominanceIndex::kBlockEntries &&
            zones_->columns.size() == spec_->schema().num_columns();
  if (!usable_) return;
  // Every string DIFF column needs its dictionary to materialize values.
  for (size_t i = 0; i < spec_->diff_columns().size(); ++i) {
    const size_t col = spec_->diff_columns()[i];
    if (spec_->dom_diff_columns()[i].type == ColumnType::kFixedString &&
        zones_->columns[col].dict == nullptr) {
      usable_ = false;
      return;
    }
  }
}

bool BlockCornerBuilder::BuildCorner(size_t b, char* corner) const {
  std::memset(corner, 0, spec_->schema().row_width());
  // DIFF columns first: a sound corner needs the whole block in one group.
  const auto& diff_cols = spec_->diff_columns();
  const auto& dom_diffs = spec_->dom_diff_columns();
  for (size_t i = 0; i < diff_cols.size(); ++i) {
    const auto& zcol = zones_->columns[diff_cols[i]];
    if (b >= zcol.zmin.size() || zcol.zmin[b] != zcol.zmax[b]) return false;
    const auto& dc = dom_diffs[i];
    if (dc.type == ColumnType::kFixedString) {
      const int64_t code = zcol.zmin[b];
      if (code < 0 ||
          static_cast<size_t>(code) >= zcol.dict->size()) {
        return false;
      }
      std::memcpy(corner + dc.offset,
                  zcol.dict->Value(static_cast<int32_t>(code)), dc.length);
    } else {
      WriteCanonicalKeyAsRaw(dc.type, zcol.zmin[b], corner + dc.offset);
    }
  }
  // Value criteria: componentwise best over the block — zmax for MAX,
  // zmin for MIN (zones are in canonical ascending key space).
  const auto& value_cols = spec_->value_columns();
  const auto& dom_values = spec_->dom_value_columns();
  for (size_t i = 0; i < value_cols.size(); ++i) {
    const auto& zcol = zones_->columns[value_cols[i].column];
    if (b >= zcol.zmin.size()) return false;
    const auto& dc = dom_values[i];
    WriteCanonicalKeyAsRaw(dc.type, dc.max ? zcol.zmax[b] : zcol.zmin[b],
                  corner + dc.offset);
  }
  return true;
}

}  // namespace skyline
