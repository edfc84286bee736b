#ifndef SKYLINE_SORT_COMPARATOR_H_
#define SKYLINE_SORT_COMPARATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/schema.h"

namespace skyline {

/// Total-order interface over raw fixed-width rows, used by the external
/// sorter. Implementations must be consistent (strict weak ordering).
///
/// When `has_key()` is true the ordering is "larger double key first",
/// with key ties resolved by Compare(). Implementations whose Compare()
/// distinguishes rows that share a key (e.g. an exact tie-break under a
/// lossy score) rely on that fallback for correctness.
///
/// The external sorter orders records by PrefixKey() — one exact integer
/// per record, computed once — and calls Compare() only between records
/// whose prefixes are equal. This is the paper's observation that sorting
/// on a single computed attribute (the entropy score E) is cheaper than a
/// nested sort over many attributes, taken down to integer compares.
class RowOrdering {
 public:
  virtual ~RowOrdering() = default;

  /// Negative if `a` sorts before `b`, 0 if equivalent, positive otherwise.
  virtual int Compare(const char* a, const char* b) const = 0;

  /// True if the order is exactly "descending by Key()".
  virtual bool has_key() const { return false; }

  /// Scalar sort key; only meaningful when has_key() is true.
  virtual double Key(const char* /*row*/) const { return 0.0; }

  /// Order-preserving integer prefix of the order: PrefixKey(a) <
  /// PrefixKey(b) must imply Compare(a, b) < 0 (so equal rows share a
  /// prefix, and unequal prefixes never need Compare). The default is the
  /// descending image of Key() for has_key() orderings
  /// (DescendingPrefixFromDouble) and 0 otherwise, which leaves the whole
  /// order to Compare.
  virtual uint64_t PrefixKey(const char* row) const;
};

/// One column of a lexicographic sort.
struct SortKey {
  size_t column = 0;
  bool descending = false;
};

/// Nested (lexicographic) ordering over schema columns — the `ORDER BY a1
/// DESC, ..., ak DESC` of the paper's Figure 6.
class LexicographicOrdering : public RowOrdering {
 public:
  /// `schema` must outlive the ordering.
  LexicographicOrdering(const Schema* schema, std::vector<SortKey> keys);

  int Compare(const char* a, const char* b) const override;

  /// Packs the leading sort columns in sort direction: up to two int32
  /// columns (32 bits each, the first in the high half), or one int64 or
  /// float64 column (float64 through the total order). 0 when the first
  /// column is a string.
  uint64_t PrefixKey(const char* row) const override;

  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  const Schema* schema_;
  std::vector<SortKey> keys_;
  /// Leading keys_ packed by PrefixKey (0, 1 or 2).
  size_t prefix_columns_ = 0;
};

/// Ordering that inverts another (for worst-case input experiments such as
/// the paper's reverse-entropy BNL runs).
class ReverseOrdering : public RowOrdering {
 public:
  /// `base` must outlive the ordering.
  explicit ReverseOrdering(const RowOrdering* base) : base_(base) {}

  int Compare(const char* a, const char* b) const override {
    return -base_->Compare(a, b);
  }

 private:
  const RowOrdering* base_;
};

}  // namespace skyline

#endif  // SKYLINE_SORT_COMPARATOR_H_
