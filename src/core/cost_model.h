#ifndef SKYLINE_CORE_COST_MODEL_H_
#define SKYLINE_CORE_COST_MODEL_H_

#include <cstdint>

#include "core/sfs.h"
#include "core/skyline_spec.h"
#include "relation/table.h"

namespace skyline {

/// Optimizer-facing cost prediction for an SFS skyline evaluation — the
/// paper's Section 6 integration requirement ("a cardinality estimator for
/// skyline queries is necessary"; "the query optimizer's cost model would
/// need to be extended").
///
/// Built on two facts about SFS with a monotone presort (no DIFF groups):
///  1. Each filter pass confirms exactly min(capacity, remaining) distinct
///     skyline tuples (the window only ever stores skyline tuples, and
///     every non-dominated arrival is stored while space remains), so
///        passes = ceil(m / capacity)
///     where m is the number of distinct skyline tuples — exact given m.
///  2. m is estimated by the expected-maxima recurrence under the paper's
///     uniformity/independence assumptions (core/cardinality.h).
struct SfsCostEstimate {
  /// Estimated distinct skyline cardinality.
  double skyline_cardinality = 0;
  /// Window capacity in entries for the given options.
  uint64_t window_capacity = 0;
  /// Predicted filter passes (exact in the skyline cardinality).
  uint64_t passes = 0;
  /// Upper bound on spilled tuples: everything not confirmed or
  /// eliminated in a pass is at most the skyline remainder plus the
  /// not-yet-dominated tail; we bound by (passes - 1) * capacity +
  /// residual spill mass, which empirically over-covers.
  double spilled_tuples_bound = 0;
  /// Extra pages bound (spilled pages written + re-read).
  double extra_pages_bound = 0;
  /// Pages read for the initial input scan (always incurred).
  uint64_t input_pages = 0;
};

/// Predicts SFS cost for an n-row table with `dims` independent uniform
/// MIN/MAX criteria. `row_width` and `projected_width` size the window
/// entries (projection on/off per `options.use_projection`).
SfsCostEstimate EstimateSfsCost(uint64_t n, int dims, size_t row_width,
                                size_t projected_width,
                                const SfsOptions& options);

/// Convenience using a concrete spec's layout.
SfsCostEstimate EstimateSfsCost(uint64_t n, const SkylineSpec& spec,
                                const SfsOptions& options);

/// Exact pass count given a known skyline cardinality (fact 1 above).
uint64_t SfsPassesForSkyline(uint64_t skyline_count, uint64_t window_capacity);

/// The access paths kAuto chooses between.
enum class SkylineAccessPath {
  kSpecial2d,
  kSpecial3d,
  kSfs,
  kBbs,
};

/// The kAuto decision plus the evidence it was made on (surfaced for
/// plans/tests).
struct SkylineAccessChoice {
  SkylineAccessPath path = SkylineAccessPath::kSfs;
  /// Rows sampled and the skyline cardinality measured on them (0 when no
  /// sample was taken — special scans and index-less inputs skip it).
  uint64_t sample_rows = 0;
  uint64_t sample_skyline = 0;
  /// Extrapolated full-table skyline estimate and the BBS cutoff it was
  /// compared against.
  double estimated_skyline = 0;
  double bbs_threshold = 0;
};

/// Skyline cardinality of `count` in-memory rows of spec.schema(), every
/// copy of a duplicated member counted (as SFS emits them). One
/// entropy-presorted window pass: each row is tested against the
/// confirmed members only. The projected row must fit a page (always so
/// without DIFF columns).
uint64_t SampleSkylineCount(const SkylineSpec& spec, const char* rows,
                            uint64_t count);

/// Chooses the kAuto access path for `spec` over `input`:
///  - 2/3 MIN/MAX criteria take the windowless special scans, always;
///  - with an available index (`index_available`) and no DIFF columns,
///    a strided sample's measured skyline is extrapolated by the
///    (ln n)^{d-1} growth law (ExtrapolateSkylineSize); BBS wins when the
///    estimate stays under max(64, n/2000) — the small-skyline regime
///    where branch-and-bound's per-point index probes beat one linear
///    scan — else SFS (anti-correlated data lands here: its skyline
///    estimate is orders of magnitude past the cutoff);
///  - everything else is SFS.
SkylineAccessChoice ChooseSkylineAccess(const Table& input,
                                        const SkylineSpec& spec,
                                        bool index_available);

}  // namespace skyline

#endif  // SKYLINE_CORE_COST_MODEL_H_
