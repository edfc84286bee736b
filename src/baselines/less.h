#ifndef SKYLINE_BASELINES_LESS_H_
#define SKYLINE_BASELINES_LESS_H_

#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/dominance_batch.h"
#include "core/run_stats.h"
#include "core/scoring.h"
#include "core/skyline_spec.h"
#include "relation/table.h"
#include "sort/external_sort.h"

namespace skyline {

/// Elimination-filter window: drops tuples dominated by a small cache of
/// high-entropy "killer" tuples before they reach the presort — the
/// paper's Section 6 future-work item ("removal of non-skyline tuples
/// could be done during the external sort passes"), realized the way the
/// authors later did in LESS (Godfrey, Shipley & Gryz, VLDB 2005).
///
/// The window stores projected skyline attributes with their entropy
/// scores and, when full, replaces its lowest-scoring entry with any
/// higher-scoring arrival: dropping window entries is always safe (the
/// window only ever *eliminates*, it never certifies), so the policy just
/// maximizes expected dominance coverage.
class EliminationFilter {
 public:
  /// `spec` and `scorer` must outlive the filter. Capacity is
  /// `window_pages` pages of projected entries.
  EliminationFilter(const SkylineSpec* spec, const EntropyScorer* scorer,
                    size_t window_pages);

  /// False iff `row` is dominated by a window entry.
  bool Keep(const char* row);

  uint64_t dropped() const { return dropped_; }
  uint64_t comparisons() const { return comparisons_; }
  size_t entry_count() const { return entries_; }
  size_t capacity() const { return capacity_; }

 private:
  const SkylineSpec* spec_;
  const SkylineSpec* entry_spec_;
  const EntropyScorer* scorer_;
  size_t entry_width_;
  size_t capacity_;
  size_t entries_ = 0;
  /// Columnar mirror of the window entries (block zone maps + batched
  /// kernel) when the projected spec qualifies; scalar loop otherwise.
  DominanceIndex index_;
  std::vector<char> storage_;
  std::vector<double> scores_;
  std::vector<char> scratch_;
  uint64_t dropped_ = 0;
  uint64_t comparisons_ = 0;
};

/// Options for the LESS-style combined sort-and-filter skyline.
struct LessOptions {
  /// Pages for the elimination-filter window used during run generation.
  size_t ef_window_pages = 2;
  /// Pages for the SFS filter window applied to the sorted stream.
  size_t window_pages = 500;
  bool use_projection = true;
  SortOptions sort_options;
};

/// Extra observability for a LESS run.
struct LessStats {
  SkylineRunStats run;  // filter-phase stats (the SFS pass)
  uint64_t ef_dropped = 0;
  uint64_t ef_comparisons = 0;
};

/// Computes the skyline with elimination while staging the input, an
/// entropy presort of the survivors, and SFS filtering of the sorted
/// remainder. Equivalent output to ComputeSkylineSfs, but the bulk of
/// dominated tuples never reach the sort runs, shrinking both sort I/O and
/// filter work. The staged survivors' page writes count in the run's
/// sort_stats.io, as LESS's first pass.
Result<Table> ComputeSkylineLess(const Table& input, const SkylineSpec& spec,
                                 const LessOptions& options,
                                 const ExecContext& ctx,
                                 const std::string& output_path,
                                 LessStats* stats);

}  // namespace skyline

#endif  // SKYLINE_BASELINES_LESS_H_
