#include "core/compute_skyline.h"

#include <optional>
#include <string_view>
#include <utility>

#include "core/bbs.h"
#include "core/cost_model.h"
#include "core/run_report.h"
#include "core/special2d.h"
#include "core/special3d.h"
#include "relation/column_store.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace {

/// Stages the constrained subset of `input` into a temp heap file attached
/// with the *base* table's column stats (min/max over a superset remain
/// valid bounds, per Table::Attach). Reusing the base stats is what keeps
/// stats-derived presort orders — EntropyOrdering — identical between a
/// scan algorithm running on the staged subset and BBS running the
/// constraint natively over the whole index.
Result<Table> MaterializeConstrained(const Table& input,
                                     const SkylineConstraint& constraint,
                                     TempFileManager* temp_files) {
  const Schema& schema = input.schema();
  const std::string path = temp_files->Allocate("constrained");
  HeapFileWriter writer(input.env(), path, schema.row_width(), nullptr);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  auto reader = input.NewReader(nullptr);
  SKYLINE_RETURN_IF_ERROR(reader->Open());
  while (const char* row = reader->Next()) {
    if (constraint.Matches(schema, row)) {
      SKYLINE_RETURN_IF_ERROR(writer.Append(row));
    }
  }
  SKYLINE_RETURN_IF_ERROR(reader->status());
  SKYLINE_RETURN_IF_ERROR(writer.Finish());
  std::vector<ColumnStats> stats;
  stats.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    stats.push_back(input.stats(c));
  }
  return Table::Attach(schema, input.env(), path, std::move(stats));
}

}  // namespace

bool SkylineAutoUsesSpecialScan(const SkylineSpec& spec) {
  return spec.value_columns().size() == 2 || spec.value_columns().size() == 3;
}

Result<Table> ComputeSkyline(SkylineAlgorithm algorithm, const Table& input,
                             const SkylineSpec& spec, const ExecContext& ctx,
                             const std::string& output_path,
                             SkylineRunStats* stats,
                             const SkylineComputeOptions& options) {
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;

  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
  TraceSpan span(ctx.trace, "skyline");

  // Resolve whether BBS actually runs: an explicit kBbs request, or kAuto
  // past the special scans with the cost model voting for it — both gated
  // on a loadable, valid index (everything else degrades to SFS; the
  // index is an accelerator, never a correctness dependency).
  bool run_bbs = false;
  std::shared_ptr<const TableColumnZones> zones;
  bool zones_cache_hit = false;
  const bool wants_bbs =
      algorithm == SkylineAlgorithm::kBbs ||
      (algorithm == SkylineAlgorithm::kAuto &&
       !SkylineAutoUsesSpecialScan(spec));
  if (wants_bbs && BbsCandidate(input, spec)) {
    auto zones_or =
        TableZoneCache::Instance().GetOrLoad(input, &zones_cache_hit);
    if (zones_or.ok()) {
      auto loaded = std::move(zones_or).value();
      if (BbsUsable(spec, loaded.get()) &&
          loaded->row_count == input.row_count()) {
        if (algorithm == SkylineAlgorithm::kBbs) {
          run_bbs = true;
        } else {
          // Keep the routing evidence: EXPLAIN ANALYZE reports what kAuto
          // sampled and which way the estimate fell.
          const SkylineAccessChoice choice =
              ChooseSkylineAccess(input, spec, true);
          s->route_sample_rows = choice.sample_rows;
          s->route_sample_skyline = choice.sample_skyline;
          s->route_estimated_skyline = choice.estimated_skyline;
          s->route_bbs_threshold = choice.bbs_threshold;
          run_bbs = choice.path == SkylineAccessPath::kBbs;
        }
        if (run_bbs) zones = std::move(loaded);
      }
    }
  }

  const char* published_as = SkylineAlgorithmName(algorithm);
  Result<Table> result = Status::Internal("unreachable");
  if (run_bbs) {
    published_as = "bbs";
    BbsOptions bbs_options;
    bbs_options.presort = options.sfs.presort;
    bbs_options.custom_ordering = options.sfs.custom_ordering;
    bbs_options.constraint = options.constraint;
    result = ComputeSkylineBbs(input, spec, zones, bbs_options, ctx,
                               output_path, s);
    if (result.ok()) {
      s->zone_map_source = zones_cache_hit ? "cache" : zones->source;
      if (!zones_cache_hit &&
          std::string_view(zones->source) == "column_file") {
        s->column_file_blocks_read =
            (zones->row_count + zones->block_rows - 1) / zones->block_rows;
      }
    }
  } else {
    // Scan algorithms: apply any constraint by staging the filtered
    // subset, then dispatch as before over the effective input.
    const Table* effective = &input;
    std::optional<TempFileManager> temp_files;
    std::optional<Table> staged;
    if (!options.constraint.empty()) {
      temp_files.emplace(input.env(),
                         ctx.TempPrefixOr(output_path + ".cs_tmp"));
      SKYLINE_ASSIGN_OR_RETURN(
          Table staged_table,
          MaterializeConstrained(input, options.constraint, &*temp_files));
      staged.emplace(std::move(staged_table));
      effective = &*staged;
    }
    switch (algorithm) {
      case SkylineAlgorithm::kBnl:
        result = ComputeSkylineBnl(*effective, spec, options.bnl, ctx,
                                   output_path, s);
        break;
      case SkylineAlgorithm::kAuto:
        if (SkylineAutoUsesSpecialScan(spec)) {
          published_as = spec.value_columns().size() == 2 ? "special2d"
                                                          : "special3d";
          result = spec.value_columns().size() == 2
                       ? ComputeSkyline2D(*effective, spec,
                                          options.sfs.sort_options, ctx,
                                          output_path, s)
                       : ComputeSkyline3D(*effective, spec,
                                          options.sfs.sort_options, ctx,
                                          output_path, s);
          break;
        }
        published_as = "sfs";
        [[fallthrough]];
      case SkylineAlgorithm::kBbs:
        // Explicit BBS without a usable index degrades to the scan.
        if (algorithm == SkylineAlgorithm::kBbs) published_as = "sfs";
        [[fallthrough]];
      case SkylineAlgorithm::kSfs:
        result = ComputeSkylineSfs(*effective, spec, options.sfs, ctx,
                                   output_path, s);
        break;
    }
  }
  if (result.ok()) {
    s->access_path = published_as;
    PublishRunStats(ctx.metrics, std::string("skyline.") + published_as, *s);
  }
  return result;
}

}  // namespace skyline
