#include "core/sfs.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/dominance_batch.h"
#include "core/scoring.h"
#include "core/sfs_parallel.h"
#include "relation/canonical_key.h"
#include "relation/column_store.h"

namespace skyline {

SfsIterator::SfsIterator(Env* env, TempFileManager* temp_files,
                         std::string sorted_path, const SkylineSpec* spec,
                         size_t window_pages, bool use_projection,
                         SkylineRunStats* stats)
    : env_(env),
      temp_files_(temp_files),
      input_path_(std::move(sorted_path)),
      spec_(spec),
      window_(spec, window_pages, use_projection),
      stats_(stats != nullptr ? stats : &local_stats_),
      out_row_(spec->schema().row_width()),
      prev_row_(spec->schema().row_width()) {}

void SfsIterator::SpillZoneTracker::Init(const SkylineSpec& spec) {
  enabled = true;
  num_schema_columns = spec.schema().num_columns();
  const auto& value_cols = spec.value_columns();
  const auto& dom_values = spec.dom_value_columns();
  for (size_t i = 0; i < value_cols.size(); ++i) {
    if (dom_values[i].type == ColumnType::kFixedString) {
      enabled = false;
      return;
    }
    columns.push_back(value_cols[i].column);
    types.push_back(dom_values[i].type);
    offsets.push_back(dom_values[i].offset);
  }
  const auto& diff_cols = spec.diff_columns();
  const auto& dom_diffs = spec.dom_diff_columns();
  for (size_t i = 0; i < diff_cols.size(); ++i) {
    if (dom_diffs[i].type == ColumnType::kFixedString) {
      enabled = false;
      return;
    }
    columns.push_back(diff_cols[i]);
    types.push_back(dom_diffs[i].type);
    offsets.push_back(dom_diffs[i].offset);
  }
  const size_t n = columns.size();
  cur_min.assign(n, std::numeric_limits<int64_t>::max());
  cur_max.assign(n, std::numeric_limits<int64_t>::min());
  zmin.resize(n);
  zmax.resize(n);
}

void SfsIterator::SpillZoneTracker::Observe(const char* row) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const int64_t key = CanonicalKeyOf(types[i], row + offsets[i]);
    cur_min[i] = std::min(cur_min[i], key);
    cur_max[i] = std::max(cur_max[i], key);
  }
  ++rows;
  if (rows % DominanceIndex::kBlockEntries == 0) SealBlock();
}

void SfsIterator::SpillZoneTracker::SealBlock() {
  for (size_t i = 0; i < columns.size(); ++i) {
    zmin[i].push_back(cur_min[i]);
    zmax[i].push_back(cur_max[i]);
    cur_min[i] = std::numeric_limits<int64_t>::max();
    cur_max[i] = std::numeric_limits<int64_t>::min();
  }
}

std::shared_ptr<const TableColumnZones>
SfsIterator::SpillZoneTracker::Take() {
  if (rows % DominanceIndex::kBlockEntries != 0) SealBlock();
  auto zones = std::make_shared<TableColumnZones>();
  zones->block_rows = DominanceIndex::kBlockEntries;
  zones->row_count = rows;
  zones->source = "spill";
  zones->columns.resize(num_schema_columns);
  for (size_t i = 0; i < columns.size(); ++i) {
    zones->columns[columns[i]].zmin = std::move(zmin[i]);
    zones->columns[columns[i]].zmax = std::move(zmax[i]);
    zmin[i].clear();
    zmax[i].clear();
  }
  rows = 0;
  return zones;
}

Status SfsIterator::Open() {
  // The first pass reads the (sorted) input; per the paper's accounting
  // that scan is not part of the algorithm's "extra pages", so it does not
  // feed temp_io.
  reader_ = std::make_unique<HeapFileReader>(
      env_, input_path_, spec_->schema().row_width(), nullptr);
  SKYLINE_RETURN_IF_ERROR(reader_->Open());
  stats_->input_rows = reader_->record_count();
  stats_->passes = 1;
  stats_->dominance_kernel = window_.kernel_name();
  // The prefilter is only sound when its zones describe exactly this file.
  if (prefilter_ != nullptr &&
      (!prefilter_->usable() || residue_writer_ != nullptr ||
       prefilter_->row_count() != reader_->record_count())) {
    prefilter_.reset();
  }
  // Spill-pass zone tracking is sound whenever skipped rows don't need to
  // reach a residue side-output.
  if (residue_writer_ == nullptr) spill_zones_.Init(*spec_);
  if (prefilter_ != nullptr || spill_zones_.enabled) {
    corner_row_.resize(spec_->schema().row_width());
  }
  BeginPassSpan();
  return Status::OK();
}

void SfsIterator::BeginPassSpan() {
  pass_span_.reset();  // records the previous pass's span, if any
  if (ctx_ != nullptr && ctx_->trace != nullptr) {
    pass_span_ = std::make_unique<TraceSpan>(
        ctx_->trace, "filter-pass", static_cast<int64_t>(stats_->passes));
  }
}

void SfsIterator::SyncWindowStats() {
  stats_->window_comparisons = window_.comparisons();
  stats_->batch_comparisons = window_.batch_comparisons();
  stats_->window_blocks_pruned = window_.blocks_pruned();
  stats_->dict_probe_hits = window_.dict_hits();
}

void SfsIterator::MaybeSkipBlocks() {
  const uint64_t block = prefilter_->block_rows();
  const uint64_t rows = reader_->record_count();
  while (pass_rows_read_ < rows && pass_rows_read_ % block == 0) {
    const size_t b = static_cast<size_t>(pass_rows_read_ / block);
    // A corner needs uniform DIFF values over the block; otherwise the
    // block is filtered row by row.
    if (!prefilter_->BuildCorner(b, corner_row_.data())) return;
    if (!window_.AnyEntryDominates(corner_row_.data())) return;
    // Every row of the block is at most the corner on every criterion and
    // shares its DIFF group, so a strict dominator of the corner strictly
    // dominates them all: skip the block wholesale.
    ++stats_->table_zone_blocks_pruned;
    pass_rows_read_ = std::min<uint64_t>(pass_rows_read_ + block, rows);
    Status st = reader_->SeekToRecord(pass_rows_read_);
    if (!st.ok()) {
      status_ = st;
      return;
    }
  }
}

const char* SfsIterator::Next() {
  if (done_ || !status_.ok()) return nullptr;
  const bool poll_cancel = ctx_ != nullptr && ctx_->has_cancel_hook();
  const bool sample_probes = ctx_ != nullptr && ctx_->trace != nullptr;
  while (true) {
    if (prefilter_ != nullptr) {
      MaybeSkipBlocks();
      if (!status_.ok()) return nullptr;
    }
    const char* row = reader_->Next();
    if (row == nullptr) {
      if (!reader_->status().ok()) {
        status_ = reader_->status();
        return nullptr;
      }
      if (!StartNextPass()) return nullptr;
      continue;
    }
    ++pass_rows_read_;
    ++probe_count_;
    if (poll_cancel && (probe_count_ & 4095u) == 0) {
      status_ = ctx_->CheckCancelled();
      if (!status_.ok()) {
        pass_span_.reset();
        return nullptr;
      }
    }
    // DIFF group boundary: groups are contiguous in the sorted input, and
    // tuples in different groups never dominate each other, so the window
    // can be cleared wholesale (the paper's diff optimization).
    if (spec_->has_diff()) {
      if (have_prev_ && !spec_->SameDiffGroup(prev_row_.data(), row)) {
        window_.Clear();
      }
      std::memcpy(prev_row_.data(), row, prev_row_.size());
      have_prev_ = true;
    }

    Window::Verdict verdict;
    if (sample_probes && probe_count_ % kProbeSampleStride == 0) {
      TraceSpan probe_span(ctx_->trace, "window-probe");
      verdict = window_.Test(row);
    } else {
      verdict = window_.Test(row);
    }
    switch (verdict) {
      case Window::Verdict::kDominated:
        if (residue_writer_ != nullptr) {
          Status st = residue_writer_->Append(row);
          if (!st.ok()) {
            status_ = st;
            return nullptr;
          }
        }
        break;  // eliminated; fetch next
      case Window::Verdict::kAdded:
      case Window::Verdict::kDuplicateSkyline:
        // Confirmed skyline: pipeline it out immediately.
        ++stats_->output_rows;
        std::memcpy(out_row_.data(), row, out_row_.size());
        SyncWindowStats();
        return out_row_.data();
      case Window::Verdict::kWindowFull: {
        // Not dominated but no window space: defer to the next pass.
        if (spill_writer_ == nullptr) {
          spill_path_ = temp_files_->Allocate("sfs_spill");
          spill_writer_ = std::make_unique<HeapFileWriter>(
              env_, spill_path_, spec_->schema().row_width(),
              &stats_->temp_io);
          Status st = spill_writer_->Open();
          if (!st.ok()) {
            status_ = st;
            return nullptr;
          }
        }
        Status st = spill_writer_->Append(row);
        if (!st.ok()) {
          status_ = st;
          return nullptr;
        }
        if (spill_zones_.enabled) spill_zones_.Observe(row);
        ++stats_->spilled_tuples;
        break;
      }
      case Window::Verdict::kSortViolation:
        status_ = Status::InvalidArgument(
            "SFS input is not sorted by a monotone scoring order: a tuple "
            "dominates one that precedes it");
        return nullptr;
    }
  }
}

bool SfsIterator::StartNextPass() {
  SyncWindowStats();
  if (spill_writer_ == nullptr) {
    // Nothing was deferred: every input tuple was either emitted or
    // eliminated, so the skyline is complete.
    done_ = true;
    pass_span_.reset();
    return false;
  }
  Status st = spill_writer_->Finish();
  if (!st.ok()) {
    status_ = st;
    pass_span_.reset();
    return false;
  }
  spill_writer_.reset();

  // The previous pass's temp input (if any) is no longer needed.
  if (!first_pass_) {
    temp_files_->Delete(input_path_);
  }
  first_pass_ = false;
  input_path_ = spill_path_;
  spill_path_.clear();

  reader_ = std::make_unique<HeapFileReader>(
      env_, input_path_, spec_->schema().row_width(), &stats_->temp_io);
  st = reader_->Open();
  if (!st.ok()) {
    status_ = st;
    pass_span_.reset();
    return false;
  }
  // Swap in the zone maps tracked while writing this spill file; the next
  // pass then skips spill blocks wholly dominated by its growing window.
  // The first pass's input prefilter no longer describes the current file
  // either way.
  prefilter_.reset();
  if (spill_zones_.enabled) {
    auto corner = std::make_shared<BlockCornerBuilder>(spec_,
                                                       spill_zones_.Take());
    if (corner->usable()) prefilter_ = std::move(corner);
  }
  window_.Clear();
  have_prev_ = false;
  pass_rows_read_ = 0;
  ++stats_->passes;
  BeginPassSpan();
  return true;
}

Result<std::string> SfsPresort(const Table& input, const SkylineSpec& spec,
                               const SfsOptions& options,
                               const ExecContext& ctx,
                               TempFileManager* temp_files,
                               SkylineRunStats* stats) {
  std::unique_ptr<RowOrdering> owned_ordering;
  const RowOrdering* ordering = nullptr;
  switch (options.presort) {
    case Presort::kNone:
      return input.path();
    case Presort::kNested:
      owned_ordering = MakeNestedSkylineOrdering(spec);
      ordering = owned_ordering.get();
      break;
    case Presort::kEntropy:
      owned_ordering = std::make_unique<EntropyOrdering>(&spec, input);
      ordering = owned_ordering.get();
      break;
    case Presort::kCustom:
      if (options.custom_ordering == nullptr) {
        return Status::InvalidArgument(
            "Presort::kCustom requires SfsOptions::custom_ordering");
      }
      ordering = options.custom_ordering;
      break;
  }
  Stopwatch sort_timer;
  TraceSpan presort_span(ctx.trace, "presort");
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      SortHeapFile(input.env(), temp_files, input.path(),
                   spec.schema().row_width(), *ordering, options.sort_options,
                   ctx, &stats->sort_stats));
  presort_span.End();
  stats->sort_seconds = sort_timer.ElapsedSeconds();
  return sorted_path;
}

Result<Table> ComputeSkylineSfs(const Table& input, const SkylineSpec& spec,
                                const SfsOptions& options,
                                const ExecContext& ctx,
                                const std::string& output_path,
                                SkylineRunStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;
  *s = SkylineRunStats{};
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Env* env = input.env();
  TempFileManager temp_files(env, ctx.TempPrefixOr(output_path + ".sfs_tmp"));
  SKYLINE_ASSIGN_OR_RETURN(
      const std::string sorted_path,
      SfsPresort(input, spec, options, ctx, &temp_files, s));
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  // Phase 2: filter passes, pipelining confirmed skyline rows straight into
  // the output table. With more than one usable worker (the context clamps
  // to the hardware: every extra block re-filters its sample and inflates
  // the merge, so oversubscription is a strict loss — a 1-core host ran
  // threads=2 1.6× slower than sequential) and no residue side-output, the
  // block-parallel filter replaces the sequential iterator.
  const size_t filter_threads = ctx.WorkerThreads();
  // The pre-clamp request (0 resolved to "all hardware"): threads_used
  // falling short of it is the degraded-parallelism honesty signal.
  const size_t threads_requested = ResolveThreadCount(ctx.threads);
  if (filter_threads > 1 && options.residue_path.empty()) {
    Stopwatch filter_timer;
    ParallelSfsOptions popt;
    popt.window_pages = options.window_pages;
    popt.use_projection = options.use_projection;
    popt.threads = filter_threads;
    popt.exec = &ctx;
    TableBuilder builder(env, output_path, spec.schema());
    SKYLINE_RETURN_IF_ERROR(builder.Open());
    SKYLINE_RETURN_IF_ERROR(ParallelSfsFilter(
        env, sorted_path, spec, popt,
        [&builder](const char* row) { return builder.AppendRaw(row); }, s));
    // The filter only knows its clamped thread count; restore the caller's
    // actual request so the degraded flag survives the clamp.
    s->threads_requested = threads_requested;
    if (s->DegradedParallelism()) {
      LogWarning("degraded parallelism: " +
                 std::to_string(s->threads_requested) +
                 " threads requested but only " +
                 std::to_string(s->threads_used) +
                 " used; timings are not a scaling measurement");
    }
    s->filter_seconds = filter_timer.ElapsedSeconds();
    return builder.Finish();
  }

  Stopwatch filter_timer;
  s->threads_requested = threads_requested;
  if (threads_requested > 1) {
    // Sequential fallback despite a multi-thread request (hardware clamp
    // or a residue path forcing the pipelined filter).
    LogWarning("degraded parallelism: " + std::to_string(threads_requested) +
               " threads requested but the filter is running sequentially");
  }
  SfsIterator iter(env, &temp_files, sorted_path, &spec, options.window_pages,
                   options.use_projection, s);
  iter.set_exec_context(&ctx);
  // Zone-map block prefilter: only the unsorted-in-place path
  // (Presort::kNone) filters the original table file, whose 64-row blocks
  // are what the cached/persisted zone maps describe. Zone maps are
  // advisory — any load failure just means no block skipping.
  if (options.presort == Presort::kNone && options.residue_path.empty()) {
    bool cache_hit = false;
    auto zones_or = TableZoneCache::Instance().GetOrLoad(input, &cache_hit);
    if (zones_or.ok()) {
      std::shared_ptr<const TableColumnZones> zones =
          std::move(zones_or).value();
      s->zone_map_source = cache_hit ? "cache" : zones->source;
      if (!cache_hit && std::string_view(zones->source) == "column_file") {
        s->column_file_blocks_read =
            (zones->row_count + zones->block_rows - 1) / zones->block_rows;
      }
      auto corner =
          std::make_shared<BlockCornerBuilder>(&spec, std::move(zones));
      if (corner->usable()) iter.set_block_prefilter(std::move(corner));
    }
  }
  std::unique_ptr<HeapFileWriter> residue;
  if (!options.residue_path.empty()) {
    residue = std::make_unique<HeapFileWriter>(
        env, options.residue_path, spec.schema().row_width(), nullptr);
    SKYLINE_RETURN_IF_ERROR(residue->Open());
    iter.set_residue_writer(residue.get());
  }
  SKYLINE_RETURN_IF_ERROR(iter.Open());

  TableBuilder builder(env, output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  while (const char* row = iter.Next()) {
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
  }
  SKYLINE_RETURN_IF_ERROR(iter.status());
  if (residue != nullptr) {
    SKYLINE_RETURN_IF_ERROR(residue->Finish());
  }
  s->filter_seconds = filter_timer.ElapsedSeconds();
  return builder.Finish();
}

}  // namespace skyline
