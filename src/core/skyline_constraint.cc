#include "core/skyline_constraint.h"

#include "relation/canonical_key.h"

namespace skyline {

bool SkylineConstraint::Matches(const Schema& schema, const char* row) const {
  for (const auto& b : bounds) {
    const int64_t key =
        CanonicalKeyOf(schema.column(b.column).type, row + schema.offset(b.column));
    if (key < b.lo || key > b.hi) return false;
  }
  return true;
}

}  // namespace skyline
