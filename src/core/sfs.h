#ifndef SKYLINE_CORE_SFS_H_
#define SKYLINE_CORE_SFS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/run_stats.h"
#include "core/skyline_spec.h"
#include "core/window.h"
#include "core/zone_prefilter.h"
#include "relation/table.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Which monotone presort order SFS applies before filtering.
enum class Presort {
  /// Nested lexicographic sort over the skyline attributes (Figure 6).
  kNested,
  /// Entropy-score sort (the w/E optimization; single-key, better window
  /// dominance numbers).
  kEntropy,
  /// Input is already in a monotone order — skip sorting. SFS still
  /// detects violations and fails with InvalidArgument.
  kNone,
  /// Sort by SfsOptions::custom_ordering — the paper's Section 4.4
  /// "combined with any preference ordering": if the user's preference is
  /// a monotone scoring, SFS emits the skyline *in preference order*, so
  /// the first results are the user's favorites (ideal with top-N). The
  /// ordering must be monotone w.r.t. dominance; violations are detected
  /// during filtering and reported as InvalidArgument.
  kCustom,
};

/// Options for the Sort-Filter-Skyline algorithm.
struct SfsOptions {
  /// Buffer pages allocated to the filter window.
  size_t window_pages = 500;
  /// Store only projected skyline attributes in the window, with duplicate
  /// elimination (the w/P optimization).
  bool use_projection = true;
  Presort presort = Presort::kEntropy;
  /// Buffer pages for the presort (the paper grants the sort 1,000 pages,
  /// separate from the filter window allocation).
  SortOptions sort_options;
  /// If non-empty, every eliminated (dominated) tuple is also written to a
  /// heap file at this path — the complement of the skyline, used by the
  /// iterative strata labeller. The residue is in no particular order.
  /// A residue forces the sequential filter whatever the worker count.
  std::string residue_path;
  /// The preference ordering used when presort == Presort::kCustom. Must
  /// outlive the call and be monotone w.r.t. dominance (any order induced
  /// by a monotone scoring function qualifies — Theorem 6).
  const RowOrdering* custom_ordering = nullptr;
};

/// Pull-based, pipelined SFS filter over an already-sorted heap file.
/// Every row returned by Next() is a confirmed skyline tuple the moment it
/// is returned — the property that makes SFS's output stream non-blocking
/// and usable for top-N early termination.
///
/// Handles multi-pass operation transparently: non-dominated tuples that
/// overflow the window spill to a temp file which seeds the next pass, until
/// a pass spills nothing.
class SfsIterator {
 public:
  /// `sorted_path` must be a heap file of spec->schema() rows in a monotone
  /// (topological w.r.t. dominance) order, with DIFF columns outermost.
  /// All pointers must outlive the iterator; `stats` may be null.
  SfsIterator(Env* env, TempFileManager* temp_files, std::string sorted_path,
              const SkylineSpec* spec, size_t window_pages,
              bool use_projection, SkylineRunStats* stats);

  SfsIterator(const SfsIterator&) = delete;
  SfsIterator& operator=(const SfsIterator&) = delete;

  /// Opens the first pass.
  Status Open();

  /// Routes eliminated (dominated) tuples to `writer` as a side output.
  /// Must be set before iteration starts; the caller owns and finishes the
  /// writer. May be null (the default) to discard eliminated tuples.
  void set_residue_writer(HeapFileWriter* writer) { residue_writer_ = writer; }

  /// Attaches a zone-map block prefilter built over the *input file's* row
  /// blocks (only sound when the input is filtered unsorted-in-place, i.e.
  /// Presort::kNone, so the file's blocks are the zone-map blocks). At
  /// every block boundary the block's corner row is tested against the
  /// window; if a confirmed entry dominates the corner the whole block is
  /// skipped without reading its rows. Ignored when a residue writer is
  /// set (skipped rows must still reach the residue). Set before Open; may
  /// be null. Later passes do not reuse this prefilter (spill files have
  /// different block alignment) — instead the iterator builds fresh zone
  /// maps over each spill file as it is written, so every pass gets block
  /// skipping regardless of how the first pass's input was produced.
  void set_block_prefilter(std::shared_ptr<const BlockCornerBuilder> p) {
    prefilter_ = std::move(p);
  }

  /// Attaches an execution context (must outlive the iterator; set before
  /// Open). The iterator then emits one "filter-pass-N" trace span per
  /// pass plus sampled "window-probe" spans (one in every
  /// kProbeSampleStride window tests), and polls the cancellation hook
  /// every few thousand rows.
  void set_exec_context(const ExecContext* ctx) { ctx_ = ctx; }

  /// Every this-many window probes, one is wrapped in a "window-probe"
  /// span — dense enough to see probe latency, sparse enough to keep the
  /// per-row cost to a counter increment.
  static constexpr uint64_t kProbeSampleStride = 8192;

  /// Returns the next skyline row (full schema row, valid until the next
  /// call), or nullptr when exhausted or on error (check status()).
  const char* Next();

  const Status& status() const { return status_; }
  const SkylineRunStats& stats() const { return *stats_; }

 private:
  /// Finishes the current pass's spill file and starts the next pass.
  /// Returns false when the computation is complete (or on error).
  bool StartNextPass();

  /// Publishes the window's comparison/pruning counters into stats_.
  void SyncWindowStats();

  /// First pass only: while positioned at a zone block boundary, tests the
  /// next block's corner row against the window and seeks past wholly
  /// dominated blocks. May set status_.
  void MaybeSkipBlocks();

  /// Opens the "filter-pass-<passes>" span (closing any previous one).
  void BeginPassSpan();

  /// Builds zone maps over the spill file as it is written, so the next
  /// pass can skip wholly dominated 64-row spill blocks the same way the
  /// first pass skips input blocks. Tracks only the spec's criterion
  /// columns (the ones BlockCornerBuilder reads) and only when they are
  /// all numeric — string criteria would need a cross-pass dictionary for
  /// codes to stay comparable, and the win there is marginal.
  struct SpillZoneTracker {
    bool enabled = false;
    /// Parallel arrays over the tracked criterion columns.
    std::vector<size_t> columns;     // schema column index
    std::vector<ColumnType> types;
    std::vector<size_t> offsets;
    size_t num_schema_columns = 0;
    uint64_t rows = 0;
    std::vector<int64_t> cur_min, cur_max;       // open block accumulators
    std::vector<std::vector<int64_t>> zmin, zmax;  // sealed blocks

    /// Configures the tracked columns from `spec`; disables itself when
    /// any criterion column is non-numeric.
    void Init(const SkylineSpec& spec);
    /// Folds one spilled row into the open block (sealing it at 64 rows).
    void Observe(const char* row);
    void SealBlock();
    /// Returns zones describing every observed row and restarts the
    /// tracker for the next pass's spill.
    std::shared_ptr<const TableColumnZones> Take();
  };

  Env* env_;
  TempFileManager* temp_files_;
  std::string input_path_;  // current pass's input
  const SkylineSpec* spec_;
  Window window_;
  SkylineRunStats local_stats_;
  SkylineRunStats* stats_;

  std::unique_ptr<HeapFileReader> reader_;
  std::unique_ptr<HeapFileWriter> spill_writer_;
  HeapFileWriter* residue_writer_ = nullptr;
  std::shared_ptr<const BlockCornerBuilder> prefilter_;
  SpillZoneTracker spill_zones_;
  std::vector<char> corner_row_;
  uint64_t pass_rows_read_ = 0;
  const ExecContext* ctx_ = nullptr;
  std::unique_ptr<TraceSpan> pass_span_;
  uint64_t probe_count_ = 0;
  std::string spill_path_;
  std::vector<char> out_row_;
  std::vector<char> prev_row_;  // DIFF group tracking
  bool have_prev_ = false;
  bool first_pass_ = true;
  bool done_ = false;
  Status status_;
};

/// SFS phase 1, the one presort every SFS caller runs (ComputeSkylineSfs,
/// the pipelined SkylineOperator, multi-window strata): sorts `input` by
/// the monotone order `options.presort` selects (Theorems 6/7 make any
/// such order a topological sort of dominance) into a temp heap file owned
/// by `temp_files`, and returns its path. Presort::kNone returns
/// `input.path()` untouched. The sorter runs with ctx.WorkerThreads()
/// workers inside a "presort" span; the sort's cost lands in
/// stats->sort_stats and stats->sort_seconds.
Result<std::string> SfsPresort(const Table& input, const SkylineSpec& spec,
                               const SfsOptions& options,
                               const ExecContext& ctx,
                               TempFileManager* temp_files,
                               SkylineRunStats* stats);

/// Computes the skyline of `input` under `spec` with SFS, writing the
/// result (full rows, in the presort's monotone order) to a new table at
/// `output_path`. `stats` may be null.
///
/// The context supplies the worker count (ctx.WorkerThreads() drives the
/// presort and, above 1 and without a residue_path, the block-parallel
/// filter of core/sfs_parallel.h, which emits the same rows in the same
/// order as the sequential filter whenever that needs a single pass), the
/// temp-file prefix, the trace sink (spans: "presort" wrapping the
/// external sort's "run-formation"/"merge-N", then "filter-pass-N" or
/// "block-scan"/"block-merge"), the metrics sink, and cancellation.
Result<Table> ComputeSkylineSfs(const Table& input, const SkylineSpec& spec,
                                const SfsOptions& options,
                                const ExecContext& ctx,
                                const std::string& output_path,
                                SkylineRunStats* stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_SFS_H_
