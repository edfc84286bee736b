#include "core/strata.h"

#include <cstring>
#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/window.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace {

std::vector<ColumnStats> CopyStats(const Table& table) {
  std::vector<ColumnStats> stats;
  stats.reserve(table.schema().num_columns());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    stats.push_back(table.stats(c));
  }
  return stats;
}

}  // namespace

Result<std::vector<Table>> ComputeStrataSfs(const Table& input,
                                            const SkylineSpec& spec,
                                            const StrataOptions& options,
                                            const ExecContext& ctx,
                                            const std::string& output_prefix,
                                            StrataStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  if (options.num_strata == 0) {
    return Status::InvalidArgument("num_strata must be positive");
  }
  StrataStats local;
  StrataStats* s = stats != nullptr ? stats : &local;
  *s = StrataStats{};
  s->input_rows = input.row_count();
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Env* env = input.env();
  TempFileManager temp_files(env,
                             ctx.TempPrefixOr(output_prefix + ".strata_tmp"));

  // Presort exactly as SFS does.
  SfsOptions presort;
  presort.presort = options.presort;
  presort.sort_options = options.sort_options;
  SkylineRunStats presort_stats;
  SKYLINE_ASSIGN_OR_RETURN(
      const std::string sorted_path,
      SfsPresort(input, spec, presort, ctx, &temp_files, &presort_stats));
  s->sort_stats = presort_stats.sort_stats;
  s->sort_seconds = presort_stats.sort_seconds;

  // One window and one output per stratum. In monotone input order a
  // tuple's stratum equals the first window level that does not dominate
  // it: if its stratum were j, transitivity gives it a dominator at every
  // level < j and none at level j.
  std::vector<std::unique_ptr<Window>> windows;
  std::vector<std::unique_ptr<TableBuilder>> builders;
  for (size_t level = 0; level < options.num_strata; ++level) {
    windows.push_back(std::make_unique<Window>(&spec, options.window_pages,
                                               options.use_projection));
    builders.push_back(std::make_unique<TableBuilder>(
        env, output_prefix + ".s" + std::to_string(level), spec.schema()));
    SKYLINE_RETURN_IF_ERROR(builders.back()->Open());
  }
  s->stratum_sizes.assign(options.num_strata, 0);

  Stopwatch filter_timer;
  TraceSpan filter_span(ctx.trace, "filter-pass", 1);
  HeapFileReader reader(env, sorted_path, spec.schema().row_width(), nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());

  const bool poll_cancel = ctx.has_cancel_hook();
  uint64_t scanned = 0;
  std::vector<char> prev_row(spec.schema().row_width());
  bool have_prev = false;
  while (const char* row = reader.Next()) {
    if (poll_cancel && (++scanned & 4095u) == 0) {
      SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
    }
    if (spec.has_diff()) {
      if (have_prev && !spec.SameDiffGroup(prev_row.data(), row)) {
        for (auto& window : windows) window->Clear();
      }
      std::memcpy(prev_row.data(), row, prev_row.size());
      have_prev = true;
    }
    for (size_t level = 0; level < options.num_strata; ++level) {
      const Window::Verdict verdict = windows[level]->Test(row);
      if (verdict == Window::Verdict::kDominated) {
        continue;  // falls through to the next stratum
      }
      if (verdict == Window::Verdict::kAdded ||
          verdict == Window::Verdict::kDuplicateSkyline) {
        SKYLINE_RETURN_IF_ERROR(builders[level]->AppendRaw(row));
        ++s->stratum_sizes[level];
        break;
      }
      if (verdict == Window::Verdict::kWindowFull) {
        return Status::ResourceExhausted(
            "stratum " + std::to_string(level) + " window overflow (" +
            std::to_string(windows[level]->capacity()) +
            " entries); enlarge window_pages or use LabelStrataIterative");
      }
      return Status::InvalidArgument(
          "strata input is not sorted by a monotone scoring order");
    }
    // Dominated at every level: deeper than the requested strata; discard.
  }
  SKYLINE_RETURN_IF_ERROR(reader.status());
  filter_span.End();
  s->filter_seconds = filter_timer.ElapsedSeconds();
  for (const auto& window : windows) {
    s->window_comparisons += window->comparisons();
  }

  std::vector<Table> strata;
  strata.reserve(options.num_strata);
  for (auto& builder : builders) {
    SKYLINE_ASSIGN_OR_RETURN(Table t, builder->Finish());
    strata.push_back(std::move(t));
  }
  return strata;
}

Result<std::vector<Table>> LabelStrataIterative(
    const Table& input, const SkylineSpec& spec, const SfsOptions& sfs_options,
    const ExecContext& ctx, size_t max_strata,
    const std::string& output_prefix, StrataStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  StrataStats local;
  StrataStats* s = stats != nullptr ? stats : &local;
  *s = StrataStats{};
  s->input_rows = input.row_count();

  Env* env = input.env();
  TempFileManager temp_files(env,
                             ctx.TempPrefixOr(output_prefix + ".label_tmp"));

  std::vector<Table> strata;
  // `current` holds the not-yet-labelled residue; starts as the input.
  // Column stats of the input remain valid bounds for every residue.
  const std::vector<ColumnStats> base_stats = CopyStats(input);
  SKYLINE_ASSIGN_OR_RETURN(
      Table current,
      Table::Attach(input.schema(), env, input.path(), base_stats));

  size_t level = 0;
  while (current.row_count() > 0 &&
         (max_strata == 0 || level < max_strata)) {
    SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
    SfsOptions opts = sfs_options;
    opts.residue_path = temp_files.Allocate("residue");
    // Each stratum's SFS run manages its own temp prefix; pass everything
    // but temp_prefix through (nested runs would collide on one prefix).
    ExecContext stratum_ctx = ctx;
    stratum_ctx.temp_prefix.clear();
    SkylineRunStats run_stats;
    SKYLINE_ASSIGN_OR_RETURN(
        Table stratum,
        ComputeSkylineSfs(current, spec, opts, stratum_ctx,
                          output_prefix + ".s" + std::to_string(level),
                          &run_stats));
    s->sort_seconds += run_stats.sort_seconds;
    s->filter_seconds += run_stats.filter_seconds;
    s->window_comparisons += run_stats.window_comparisons;
    s->stratum_sizes.push_back(stratum.row_count());
    strata.push_back(std::move(stratum));
    ++level;

    const std::string previous_path = current.path();
    SKYLINE_ASSIGN_OR_RETURN(
        current,
        Table::Attach(input.schema(), env, opts.residue_path, base_stats));
    if (previous_path != input.path()) temp_files.Delete(previous_path);
  }
  return strata;
}

}  // namespace skyline
