#include "baselines/less.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/dominance.h"
#include "core/sfs.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/temp_file_manager.h"

namespace skyline {

EliminationFilter::EliminationFilter(const SkylineSpec* spec,
                                     const EntropyScorer* scorer,
                                     size_t window_pages)
    : spec_(spec),
      entry_spec_(&spec->projected_spec()),
      scorer_(scorer),
      entry_width_(spec->projected_schema().row_width()),
      capacity_(window_pages * RecordsPerPage(entry_width_)),
      index_(&spec->projected_spec()),
      scratch_(entry_width_) {
  SKYLINE_CHECK_GT(capacity_, 0u);
  storage_.reserve(capacity_ * entry_width_);
  scores_.reserve(capacity_);
  index_.Reserve(capacity_);
}

bool EliminationFilter::Keep(const char* row) {
  spec_->ProjectRow(row, scratch_.data());
  const char* probe = scratch_.data();
  if (index_.columnar()) {
    // Unlike the SFS window, EF entries may dominate each other (the
    // replacement policy is score-based, not dominance-based), so several
    // mask classes can be set at once — but Keep only ever consumes the
    // `dominates` mask, for which every block scan is independent.
    DominanceIndex::Probe keys;
    index_.EncodeProbe(probe, &keys);
    const size_t index_blocks = DominanceIndex::BlockCountFor(entries_);
    for (size_t b = 0; b < index_blocks; ++b) {
      if (index_.CanPruneBlock(keys, b)) continue;
      comparisons_ += index_.BlockEntries(b, entries_);
      if (index_.TestBlock(keys, b, entries_).dominates != 0) {
        ++dropped_;
        return false;
      }
    }
  } else {
    for (size_t i = 0; i < entries_; ++i) {
      ++comparisons_;
      if (CompareDominance(*entry_spec_, storage_.data() + i * entry_width_,
                           probe) == DomResult::kFirstDominates) {
        ++dropped_;
        return false;
      }
    }
  }
  const double score = scorer_->Score(row);
  if (entries_ < capacity_) {
    storage_.insert(storage_.end(), probe, probe + entry_width_);
    scores_.push_back(score);
    index_.Append(probe);
    ++entries_;
    return true;
  }
  // Replace the weakest (lowest-score) entry if the arrival scores higher:
  // high-entropy tuples dominate the most others, and eviction is always
  // safe for a pure elimination cache.
  const size_t weakest = static_cast<size_t>(
      std::min_element(scores_.begin(), scores_.end()) - scores_.begin());
  if (score > scores_[weakest]) {
    std::memcpy(storage_.data() + weakest * entry_width_, probe, entry_width_);
    scores_[weakest] = score;
    index_.ReplaceAt(weakest, probe);
  }
  return true;
}

Result<Table> ComputeSkylineLess(const Table& input, const SkylineSpec& spec,
                                 const LessOptions& options,
                                 const ExecContext& ctx,
                                 const std::string& output_path,
                                 LessStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  LessStats local;
  LessStats* s = stats != nullptr ? stats : &local;
  *s = LessStats{};
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Env* env = input.env();
  TempFileManager temp_files(env, ctx.TempPrefixOr(output_path + ".less_tmp"));

  // Phase 1: the elimination filter screens the input while it is staged;
  // only the survivors are sorted.
  EntropyScorer scorer(&spec, input);
  EntropyOrdering ordering(&spec, input);
  EliminationFilter ef(&spec, &scorer, options.ef_window_pages);
  const size_t width = spec.schema().row_width();

  Stopwatch sort_timer;
  TraceSpan presort_span(ctx.trace, "presort");
  const std::string staged_path = temp_files.Allocate("less_staged");
  IoStats staged_io;
  {
    auto reader = input.NewReader(nullptr);
    SKYLINE_RETURN_IF_ERROR(reader->Open());
    HeapFileWriter staged(env, staged_path, width, &staged_io);
    SKYLINE_RETURN_IF_ERROR(staged.Open());
    uint64_t scanned = 0;
    while (const char* row = reader->Next()) {
      if ((++scanned & 4095u) == 0) {
        SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
      }
      if (ef.Keep(row)) SKYLINE_RETURN_IF_ERROR(staged.Append(row));
    }
    SKYLINE_RETURN_IF_ERROR(reader->status());
    SKYLINE_RETURN_IF_ERROR(staged.Finish());
  }
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      SortHeapFile(env, &temp_files, staged_path, width, ordering,
                   options.sort_options, ctx, &s->run.sort_stats));
  presort_span.End();
  s->run.sort_stats.io += staged_io;
  s->run.sort_seconds = sort_timer.ElapsedSeconds();
  s->ef_dropped = ef.dropped();
  s->ef_comparisons = ef.comparisons();

  // Phase 2: standard SFS filter over the (already thinned) sorted stream.
  Stopwatch filter_timer;
  SfsIterator iter(env, &temp_files, sorted_path, &spec, options.window_pages,
                   options.use_projection, &s->run);
  iter.set_exec_context(&ctx);
  // SfsIterator resets sort stats inside Open? No — it only sets
  // input_rows/passes; preserve the sort numbers captured above.
  const SortStats saved_sort = s->run.sort_stats;
  const double saved_sort_seconds = s->run.sort_seconds;
  SKYLINE_RETURN_IF_ERROR(iter.Open());
  TableBuilder builder(env, output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  while (const char* row = iter.Next()) {
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
  }
  SKYLINE_RETURN_IF_ERROR(iter.status());
  s->run.sort_stats = saved_sort;
  s->run.sort_seconds = saved_sort_seconds;
  s->run.filter_seconds = filter_timer.ElapsedSeconds();
  // Account eliminated tuples in the input count.
  s->run.input_rows = input.row_count();
  return builder.Finish();
}

}  // namespace skyline
