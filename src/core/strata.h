#ifndef SKYLINE_CORE_STRATA_H_
#define SKYLINE_CORE_STRATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/run_stats.h"
#include "core/sfs.h"
#include "core/skyline_spec.h"
#include "relation/table.h"

namespace skyline {

/// Options for skyline strata computation (Section 4.4 of the paper).
/// Stratum s₀ is the skyline; s₁ is the skyline after removing s₀; etc.
struct StrataOptions {
  /// How many strata to compute.
  size_t num_strata = 4;
  /// Buffer pages for each of the `num_strata` windows.
  size_t window_pages = 500;
  bool use_projection = true;
  /// The SFS presort (SfsPresort); kCustom is rejected, since no
  /// preference ordering can be supplied here.
  Presort presort = Presort::kEntropy;
  SortOptions sort_options;
};

/// Per-run observability for strata computation.
struct StrataStats {
  std::vector<uint64_t> stratum_sizes;
  uint64_t input_rows = 0;
  SortStats sort_stats;
  double sort_seconds = 0.0;
  double filter_seconds = 0.0;
  uint64_t window_comparisons = 0;
};

/// Computes the first `num_strata` skyline strata simultaneously with the
/// paper's multi-window SFS adaptation: a tuple dominated at window level j
/// falls through to level j+1; a tuple not dominated at level j belongs to
/// stratum j. Requires a single filtering pass, so each window must hold its
/// stratum (returns ResourceExhausted if any window overflows — use
/// LabelStrataIterative for unbounded strata). Tuples deeper than the last
/// stratum are discarded.
///
/// Writes stratum i to "<output_prefix>.s<i>"; returns the strata tables in
/// order. `stats` may be null.
Result<std::vector<Table>> ComputeStrataSfs(const Table& input,
                                            const SkylineSpec& spec,
                                            const StrataOptions& options,
                                            const ExecContext& ctx,
                                            const std::string& output_prefix,
                                            StrataStats* stats);

/// Labels every tuple with its stratum by running full SFS repeatedly:
/// compute the skyline, remove it, recurse on the residue (the paper's
/// future-work "label each tuple with its stratum number"). Handles any
/// stratum size at the cost of one SFS run per stratum. Stops after
/// `max_strata` strata (0 = until the input is exhausted).
Result<std::vector<Table>> LabelStrataIterative(
    const Table& input, const SkylineSpec& spec, const SfsOptions& sfs_options,
    const ExecContext& ctx, size_t max_strata,
    const std::string& output_prefix, StrataStats* stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_STRATA_H_
