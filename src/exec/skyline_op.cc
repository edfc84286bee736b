#include "exec/skyline_op.h"

#include <cstdio>
#include <string_view>
#include <utility>

#include "core/bbs.h"
#include "core/compute_skyline.h"
#include "core/run_report.h"
#include "exec/scan.h"

namespace skyline {

Result<std::unique_ptr<SkylineOperator>> SkylineOperator::Make(
    std::unique_ptr<Operator> child, Env* env, std::string temp_prefix,
    std::vector<Criterion> criteria, SkylineAlgorithm algorithm,
    SfsOptions sfs_options, BnlOptions bnl_options,
    SkylineConstraint constraint) {
  SKYLINE_ASSIGN_OR_RETURN(
      SkylineSpec spec,
      SkylineSpec::Make(child->output_schema(), std::move(criteria)));
  return std::unique_ptr<SkylineOperator>(new SkylineOperator(
      std::move(child), env, std::move(temp_prefix), std::move(spec),
      algorithm, std::move(sfs_options), std::move(bnl_options),
      std::move(constraint)));
}

SkylineOperator::SkylineOperator(std::unique_ptr<Operator> child, Env* env,
                                 std::string temp_prefix, SkylineSpec spec,
                                 SkylineAlgorithm algorithm,
                                 SfsOptions sfs_options,
                                 BnlOptions bnl_options,
                                 SkylineConstraint constraint)
    : child_(std::move(child)),
      env_(env),
      temp_files_(env, std::move(temp_prefix)),
      spec_(std::move(spec)),
      algorithm_(algorithm),
      sfs_options_(std::move(sfs_options)),
      bnl_options_(std::move(bnl_options)),
      constraint_(std::move(constraint)) {}

Status SkylineOperator::OpenImpl() {
  static const ExecContext* const kNoContext = new ExecContext();
  const ExecContext& ctx = exec_ != nullptr ? *exec_ : *kNoContext;
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  // A pure table-scan child needs no staging: compute over the base table
  // itself, keeping its persisted sidecars (column file, z-order index)
  // reachable. BBS's whole point is *not* reading the table, so copying
  // it through a temp file first would both defeat the index and pay the
  // scan it avoids. Any other child is materialized into a temp table;
  // TableBuilder collects the column statistics the entropy presort
  // normalizes with.
  const Table* input = nullptr;
  if (const auto* scan = dynamic_cast<const TableScanOperator*>(child_.get())) {
    input = scan->table();
  } else {
    SKYLINE_RETURN_IF_ERROR(child_->Open());
    const std::string staged = temp_files_.Allocate("skyline_input");
    TableBuilder builder(env_, staged, child_->output_schema());
    SKYLINE_RETURN_IF_ERROR(builder.Open());
    while (const char* row = child_->Next()) {
      SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
    }
    SKYLINE_RETURN_IF_ERROR(child_->status());
    SKYLINE_ASSIGN_OR_RETURN(Table staged_table, builder.Finish());
    input_table_.emplace(std::move(staged_table));
    input = &*input_table_;
  }

  // Everything except pipelined sequential SFS produces a materialized
  // table: hand those paths to the unified dispatch (which also publishes
  // run stats to the context's metrics sink) and stream the result. A
  // constraint, an explicit BBS request, or a kAuto query over an indexed
  // table must also go through the dispatch — the pipelined shortcut
  // would silently skip the index path and the constraint.
  const bool pipelined_sfs =
      algorithm_ != SkylineAlgorithm::kBnl &&
      algorithm_ != SkylineAlgorithm::kBbs &&
      !(algorithm_ == SkylineAlgorithm::kAuto &&
        SkylineAutoUsesSpecialScan(spec_)) &&
      !(algorithm_ == SkylineAlgorithm::kAuto && BbsCandidate(*input, spec_)) &&
      constraint_.empty() &&
      (ctx.WorkerThreads() <= 1 || !sfs_options_.residue_path.empty());
  if (!pipelined_sfs) {
    const std::string out = temp_files_.Allocate("skyline_result");
    SkylineComputeOptions compute_options;
    compute_options.sfs = sfs_options_;
    compute_options.bnl = bnl_options_;
    compute_options.constraint = constraint_;
    SKYLINE_ASSIGN_OR_RETURN(
        Table result, ComputeSkyline(algorithm_, *input, spec_, ctx, out,
                                     &stats_, compute_options));
    materialized_.emplace(std::move(result));
    materialized_reader_ = materialized_->NewReader(nullptr);
    return Status::OK();
  }

  // Sequential SFS: presort now (blocking), then stream the filter so rows
  // pipeline out as they are confirmed.
  SKYLINE_ASSIGN_OR_RETURN(
      const std::string sorted_path,
      SfsPresort(*input, spec_, sfs_options_, ctx, &temp_files_, &stats_));
  stats_.access_path = "sfs";
  sfs_ = std::make_unique<SfsIterator>(
      env_, &temp_files_, sorted_path, &spec_, sfs_options_.window_pages,
      sfs_options_.use_projection, &stats_);
  if (exec_ != nullptr) sfs_->set_exec_context(exec_);
  return sfs_->Open();
}

const char* SkylineOperator::NextImpl() {
  if (!status_.ok()) return nullptr;
  if (materialized_reader_ != nullptr) {
    // Materialized result (BNL, a special-case scan, or the parallel
    // filter).
    const char* row = materialized_reader_->Next();
    if (row == nullptr) status_ = materialized_reader_->status();
    return row;
  }
  if (sfs_ == nullptr) return nullptr;
  const char* row = sfs_->Next();
  if (row == nullptr) {
    status_ = sfs_->status();
    // The materialized paths publish inside ComputeSkyline; the pipelined
    // filter publishes here, once the stats have stopped moving.
    if (status_.ok() && exec_ != nullptr && !stats_published_) {
      PublishRunStats(exec_->metrics, "skyline.sfs", stats_);
      stats_published_ = true;
    }
  }
  return row;
}

void SkylineOperator::CollectOperatorDetail(PlanNodeStats* node) const {
  node->counters.emplace_back("input_rows", stats_.input_rows);
  node->counters.emplace_back("passes", stats_.passes);
  node->counters.emplace_back("window_comparisons", stats_.window_comparisons);
  if (stats_.merge_comparisons > 0) {
    node->counters.emplace_back("merge_comparisons", stats_.merge_comparisons);
  }
  if (stats_.window_blocks_pruned > 0) {
    node->counters.emplace_back("window_blocks_pruned",
                                stats_.window_blocks_pruned);
  }
  if (stats_.merge_blocks_pruned > 0) {
    node->counters.emplace_back("merge_blocks_pruned",
                                stats_.merge_blocks_pruned);
  }
  if (stats_.table_zone_blocks_pruned > 0) {
    node->counters.emplace_back("table_zone_blocks_pruned",
                                stats_.table_zone_blocks_pruned);
  }
  if (stats_.spilled_tuples > 0) {
    node->counters.emplace_back("spilled_tuples", stats_.spilled_tuples);
  }
  if (stats_.index_nodes_visited > 0) {
    node->counters.emplace_back("index_nodes_visited",
                                stats_.index_nodes_visited);
  }
  if (stats_.index_blocks_skipped > 0) {
    node->counters.emplace_back("index_blocks_skipped",
                                stats_.index_blocks_skipped);
  }
  if (stats_.heap_peak > 0) {
    node->counters.emplace_back("heap_peak", stats_.heap_peak);
  }
  node->counters.emplace_back("threads_used", stats_.threads_used);

  if (stats_.access_path[0] != '\0') {
    node->notes.emplace_back("access", stats_.access_path);
  }
  node->notes.emplace_back("kernel", stats_.dominance_kernel);
  if (std::string_view(stats_.partition_scheme) != "none") {
    node->notes.emplace_back("scheme", stats_.partition_scheme);
  }
  if (std::string_view(stats_.zone_map_source) != "none") {
    node->notes.emplace_back("zones", stats_.zone_map_source);
  }
  if (stats_.route_sample_rows > 0) {
    char route[160];
    std::snprintf(route, sizeof(route),
                  "sampled %llu rows -> %llu skyline, est %.0f vs bbs cutoff "
                  "%.0f",
                  static_cast<unsigned long long>(stats_.route_sample_rows),
                  static_cast<unsigned long long>(stats_.route_sample_skyline),
                  stats_.route_estimated_skyline, stats_.route_bbs_threshold);
    node->notes.emplace_back("route", route);
  }
}

}  // namespace skyline
