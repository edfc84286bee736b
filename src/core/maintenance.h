#ifndef SKYLINE_CORE_MAINTENANCE_H_
#define SKYLINE_CORE_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "core/skyline_spec.h"

namespace skyline {

/// Incremental maintenance of a skyline under updates — the flip side of
/// the paper's Section 2 argument against precomputed skyline indexes
/// ("a single insertion of a tuple that dominates the current skyline
/// would invalidate the entire index").
///
/// Inserts are cheap: a new tuple either is dominated by the maintained
/// skyline (no change), or joins it, evicting the members it dominates —
/// O(|skyline|) per insert. Deletes are the expensive direction the paper
/// alludes to: removing a *skyline member* may promote formerly dominated
/// tuples, which cannot be derived from the skyline alone; Remove()
/// reports when the base data must be consulted again. Only the lost
/// member's dominance region needs it: every promoted tuple was dominated
/// by that member, so a caller recomputes the skyline of the rows inside
/// that region, drops the members inside it (the region's skyline holds
/// them again), and Insert()s the region's skyline.
class SkylineMaintainer {
 public:
  enum class InsertResult {
    /// The tuple is dominated by (or duplicates nothing and changes
    /// nothing below) an existing member: skyline unchanged.
    kDominated,
    /// The tuple joined the skyline without evicting anyone.
    kAdded,
    /// The tuple joined and evicted >= 1 dominated member.
    kAddedEvicted,
  };

  enum class RemoveResult {
    /// The tuple was not a skyline member: skyline unchanged (dominated
    /// tuples never influence the skyline).
    kNotMember,
    /// A member was removed; the maintained set is now only a *subset* of
    /// the true skyline — recompute the removed member's dominance region
    /// from the base data to restore it.
    kMemberRemovedRecomputeNeeded,
    /// A member was removed but an equivalent duplicate remains, so the
    /// skyline is still exact.
    kDuplicateMemberRemoved,
  };

  /// `spec` must outlive the maintainer. Starts empty; seed with Insert()
  /// over all base rows, or with Seed() when the rows are already a
  /// skyline.
  explicit SkylineMaintainer(const SkylineSpec* spec);

  /// Adopts `count` rows (spec->schema() layout, densely packed) that the
  /// caller asserts are already mutually non-dominating — a previously
  /// computed skyline. No dominance checks run: the cost is one memcpy,
  /// not the O(n·|skyline|) of per-row Insert(). Replaces the current
  /// members.
  void Seed(const char* rows, size_t count);

  /// Convenience: a maintainer pre-seeded with a computed skyline.
  static SkylineMaintainer FromComputedSkyline(const SkylineSpec* spec,
                                               const char* rows, size_t count);

  /// Offers one row (spec->schema() layout, copied in).
  InsertResult Insert(const char* row);

  /// Removes one row previously part of the base data. Matching is by
  /// skyline-attribute equivalence against the maintained members.
  RemoveResult Remove(const char* row);

  size_t size() const { return count_; }
  const char* MemberAt(size_t i) const;
  uint64_t evictions() const { return evictions_; }

 private:
  const SkylineSpec* spec_;
  size_t width_;
  std::vector<char> rows_;
  size_t count_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace skyline

#endif  // SKYLINE_CORE_MAINTENANCE_H_
