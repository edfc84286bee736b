#ifndef SKYLINE_CORE_RUN_REPORT_H_
#define SKYLINE_CORE_RUN_REPORT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/plan_stats.h"
#include "core/run_stats.h"

namespace skyline {

/// One run's observability artifact: the per-run SkylineRunStats plus
/// optional aggregated metrics and the trace span log, rendered to a
/// versioned JSON document (or a human-oriented text table).
///
/// Schema v1 ("schema_version": 1):
///   { schema_version, tool, algorithm, wall_seconds,
///     labels:  {string: string, ...},         // producer extras
///     numbers: {string: number, ...},         // producer extras
///     stats:   {input_rows, output_rows, passes, spilled_tuples,
///               temp_pages_read, temp_pages_written, extra_pages,
///               window_comparisons, batch_comparisons, merge_comparisons,
///               window_blocks_pruned, merge_blocks_pruned,
///               window_replacements, dominance_kernel, threads_used,
///               access_path, route_sample_rows, route_sample_skyline,
///               route_estimated_skyline, route_bbs_threshold,
///               sort_seconds, filter_seconds, block_scan_seconds,
///               block_merge_seconds, total_seconds,
///               sort: {runs_generated, merge_levels, threads_used,
///                      pages_read, pages_written, key_pages_read,
///                      key_pages_written}},
///     plan:    [{label, depth, rows_in, rows_out, next_calls, open_ns,
///                total_ns, self_ns, counters: {...},
///                notes: {...}}, ...],              // if collected
///     metrics: {counters: {...}, gauges: {...},
///               histograms: {name: {count, sum_ns, min_ns, max_ns,
///                                   p50_ns, p95_ns, p99_ns,   // bounds
///                                   p50_est_ns, p90_est_ns,
///                                   p99_est_ns}}},            // if set
///     trace:   {recorded, dropped, truncated,
///               spans: [{name, thread, depth, start_ns,
///                        duration_ns}, ...]}}                   // if set
/// New keys may be added within a version; existing keys only change
/// meaning with a schema_version bump.
struct RunReport {
  static constexpr int kSchemaVersion = 1;

  /// Producer ("parallel_sfs_bench", "sql_shell", ...).
  std::string tool;
  /// Algorithm that ran ("sfs", "bnl", ...); empty to omit.
  std::string algorithm;
  SkylineRunStats stats;
  double wall_seconds = 0.0;

  /// Producer-specific extras rendered under "labels" / "numbers".
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> numbers;

  /// Per-operator profile of the executed plan (CollectPlanStats); empty
  /// omits the "plan" section.
  std::vector<PlanNodeStats> plan;

  /// Borrowed sinks; null omits the corresponding section.
  const MetricsRegistry* metrics = nullptr;
  const TraceSink* trace = nullptr;
};

/// Renders the full versioned JSON document (ends with '\n').
std::string RenderRunReportJson(const RunReport& report);

/// Renders a compact human-readable summary (stats, top metrics, span
/// tree) for terminals.
std::string RenderRunReportText(const RunReport& report);

/// Emits the report as a JSON object value into an in-progress document
/// (the benchmark embeds one report per run).
void AppendRunReportObject(JsonWriter* json, const RunReport& report);

/// Emits just the "stats" object body for `stats` into `json` (the caller
/// brackets it with Key/Begin/End as needed).
void AppendRunStatsObject(JsonWriter* json, const SkylineRunStats& stats);

/// Publishes `stats` into `metrics` as "<prefix>.<field>" counters/gauges
/// plus "<prefix>.sort_seconds"/"<prefix>.filter_seconds" latency
/// histograms — the bridge from the passive per-run struct to the live
/// registry a server scrapes. Null `metrics` is a no-op.
void PublishRunStats(MetricsRegistry* metrics, std::string_view prefix,
                     const SkylineRunStats& stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_RUN_REPORT_H_
