#include "core/run_report.h"

#include <cstdio>

namespace skyline {
namespace {

void AppendMetricsObject(JsonWriter* json, const MetricsRegistry& metrics) {
  const MetricsSnapshot snapshot = metrics.Aggregate();
  json->BeginObject();
  json->Key("counters");
  json->BeginObject();
  for (const auto& c : snapshot.counters) {
    json->KeyValue(c.name, static_cast<uint64_t>(c.value));
  }
  json->EndObject();
  json->Key("gauges");
  json->BeginObject();
  for (const auto& g : snapshot.gauges) {
    json->KeyValue(g.name, g.value);
  }
  json->EndObject();
  json->Key("histograms");
  json->BeginObject();
  for (const auto& h : snapshot.histograms) {
    json->Key(h.name);
    json->BeginObject();
    json->KeyValue("count", h.count);
    json->KeyValue("sum_ns", h.sum_ns);
    json->KeyValue("min_ns", h.min_ns);
    json->KeyValue("max_ns", h.max_ns);
    json->KeyValue("p50_ns", h.QuantileNanos(0.50));
    json->KeyValue("p95_ns", h.QuantileNanos(0.95));
    json->KeyValue("p99_ns", h.QuantileNanos(0.99));
    json->KeyValue("p50_est_ns", h.QuantileEstimateNanos(0.50));
    json->KeyValue("p90_est_ns", h.QuantileEstimateNanos(0.90));
    json->KeyValue("p99_est_ns", h.QuantileEstimateNanos(0.99));
    json->EndObject();
  }
  json->EndObject();
  if (metrics.overflow_count() > 0) {
    json->KeyValue("registration_overflow", metrics.overflow_count());
  }
  json->EndObject();
}

void AppendTraceObject(JsonWriter* json, const TraceSink& trace) {
  json->BeginObject();
  json->KeyValue("recorded", trace.recorded());
  json->KeyValue("dropped", trace.dropped());
  json->KeyValue("truncated", trace.truncated());
  json->Key("spans");
  json->BeginArray();
  for (const TraceEvent& event : trace.Snapshot()) {
    json->BeginObject();
    json->KeyValue("name", event.name_view());
    json->KeyValue("thread", static_cast<uint64_t>(event.thread_id));
    json->KeyValue("depth", static_cast<uint64_t>(event.depth));
    json->KeyValue("start_ns", event.start_ns);
    json->KeyValue("duration_ns", event.duration_ns);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

void AppendRunStatsObject(JsonWriter* json, const SkylineRunStats& stats) {
  json->BeginObject();
  json->KeyValue("input_rows", stats.input_rows);
  json->KeyValue("output_rows", stats.output_rows);
  json->KeyValue("passes", stats.passes);
  json->KeyValue("spilled_tuples", stats.spilled_tuples);
  json->KeyValue("temp_pages_read", stats.temp_io.pages_read);
  json->KeyValue("temp_pages_written", stats.temp_io.pages_written);
  json->KeyValue("extra_pages", stats.ExtraPages());
  json->KeyValue("window_comparisons", stats.window_comparisons);
  json->KeyValue("batch_comparisons", stats.batch_comparisons);
  json->KeyValue("merge_comparisons", stats.merge_comparisons);
  json->KeyValue("window_blocks_pruned", stats.window_blocks_pruned);
  json->KeyValue("merge_blocks_pruned", stats.merge_blocks_pruned);
  json->KeyValue("window_replacements", stats.window_replacements);
  json->KeyValue("partition_scheme",
                 std::string_view(stats.partition_scheme));
  json->KeyValue("merge_candidates", stats.merge_candidates);
  json->KeyValue("representative_prunes", stats.representative_prunes);
  json->KeyValue("cascade_levels", stats.cascade_levels);
  json->KeyValue("table_zone_blocks_pruned", stats.table_zone_blocks_pruned);
  json->KeyValue("column_file_blocks_read", stats.column_file_blocks_read);
  json->KeyValue("dict_probe_hits", stats.dict_probe_hits);
  json->KeyValue("index_nodes_visited", stats.index_nodes_visited);
  json->KeyValue("index_blocks_skipped", stats.index_blocks_skipped);
  json->KeyValue("heap_peak", stats.heap_peak);
  json->KeyValue("zone_map_source", std::string_view(stats.zone_map_source));
  json->KeyValue("dominance_kernel", std::string_view(stats.dominance_kernel));
  json->KeyValue("access_path", std::string_view(stats.access_path));
  json->KeyValue("route_sample_rows", stats.route_sample_rows);
  json->KeyValue("route_sample_skyline", stats.route_sample_skyline);
  json->KeyValue("route_estimated_skyline", stats.route_estimated_skyline);
  json->KeyValue("route_bbs_threshold", stats.route_bbs_threshold);
  json->KeyValue("threads_used", stats.threads_used);
  json->KeyValue("threads_requested", stats.threads_requested);
  json->KeyValue("degraded_parallelism", stats.DegradedParallelism());
  json->KeyValue("sort_seconds", stats.sort_seconds);
  json->KeyValue("filter_seconds", stats.filter_seconds);
  json->KeyValue("block_scan_seconds", stats.block_scan_seconds);
  json->KeyValue("block_merge_seconds", stats.block_merge_seconds);
  json->KeyValue("scan_avg_busy_workers", stats.scan_avg_busy_workers);
  json->KeyValue("merge_avg_busy_workers", stats.merge_avg_busy_workers);
  json->KeyValue("scan_merge_overlap_seconds",
                 stats.scan_merge_overlap_seconds);
  json->KeyValue("total_seconds", stats.total_seconds());
  json->Key("sort");
  json->BeginObject();
  json->KeyValue("runs_generated", stats.sort_stats.runs_generated);
  json->KeyValue("merge_levels", stats.sort_stats.merge_levels);
  json->KeyValue("threads_used", stats.sort_stats.threads_used);
  json->KeyValue("pages_read", stats.sort_stats.io.pages_read);
  json->KeyValue("pages_written", stats.sort_stats.io.pages_written);
  json->KeyValue("key_pages_read", stats.sort_stats.key_io.pages_read);
  json->KeyValue("key_pages_written", stats.sort_stats.key_io.pages_written);
  json->EndObject();
  json->EndObject();
}

void AppendRunReportObject(JsonWriter* json, const RunReport& report) {
  json->BeginObject();
  json->KeyValue("schema_version",
                 static_cast<int64_t>(RunReport::kSchemaVersion));
  json->KeyValue("tool", report.tool);
  if (!report.algorithm.empty()) {
    json->KeyValue("algorithm", report.algorithm);
  }
  json->KeyValue("wall_seconds", report.wall_seconds);
  if (!report.labels.empty()) {
    json->Key("labels");
    json->BeginObject();
    for (const auto& [key, value] : report.labels) json->KeyValue(key, value);
    json->EndObject();
  }
  if (!report.numbers.empty()) {
    json->Key("numbers");
    json->BeginObject();
    for (const auto& [key, value] : report.numbers) json->KeyValue(key, value);
    json->EndObject();
  }
  json->Key("stats");
  AppendRunStatsObject(json, report.stats);
  if (!report.plan.empty()) {
    json->Key("plan");
    AppendPlanStatsArray(json, report.plan);
  }
  if (report.metrics != nullptr) {
    json->Key("metrics");
    AppendMetricsObject(json, *report.metrics);
  }
  if (report.trace != nullptr) {
    json->Key("trace");
    AppendTraceObject(json, *report.trace);
  }
  json->EndObject();
}

std::string RenderRunReportJson(const RunReport& report) {
  JsonWriter json;
  AppendRunReportObject(&json, report);
  return json.TakeString();
}

std::string RenderRunReportText(const RunReport& report) {
  std::string out;
  char line[256];
  auto add = [&out, &line]() { out += line; };

  std::snprintf(line, sizeof(line), "== run report (%s%s%s) ==\n",
                report.tool.c_str(), report.algorithm.empty() ? "" : ", ",
                report.algorithm.c_str());
  add();
  const SkylineRunStats& s = report.stats;
  std::snprintf(line, sizeof(line),
                "rows in/out %llu/%llu  passes %llu  spilled %llu  "
                "extra pages %llu\n",
                static_cast<unsigned long long>(s.input_rows),
                static_cast<unsigned long long>(s.output_rows),
                static_cast<unsigned long long>(s.passes),
                static_cast<unsigned long long>(s.spilled_tuples),
                static_cast<unsigned long long>(s.ExtraPages()));
  add();
  std::snprintf(line, sizeof(line),
                "comparisons: window %llu (batch %llu)  merge %llu  "
                "kernel %s  threads %llu\n",
                static_cast<unsigned long long>(s.window_comparisons),
                static_cast<unsigned long long>(s.batch_comparisons),
                static_cast<unsigned long long>(s.merge_comparisons),
                s.dominance_kernel,
                static_cast<unsigned long long>(s.threads_used));
  add();
  if (s.merge_candidates > 0) {
    std::snprintf(
        line, sizeof(line),
        "merge: scheme %s  candidates %llu  rep-pruned %llu  "
        "cascade levels %llu  busy scan/merge %.2f/%.2f  overlap %.4fs\n",
        s.partition_scheme,
        static_cast<unsigned long long>(s.merge_candidates),
        static_cast<unsigned long long>(s.representative_prunes),
        static_cast<unsigned long long>(s.cascade_levels),
        s.scan_avg_busy_workers, s.merge_avg_busy_workers,
        s.scan_merge_overlap_seconds);
    add();
  }
  if (s.index_nodes_visited > 0 || s.index_blocks_skipped > 0) {
    std::snprintf(line, sizeof(line),
                  "index: nodes visited %llu  blocks skipped %llu  "
                  "heap peak %llu\n",
                  static_cast<unsigned long long>(s.index_nodes_visited),
                  static_cast<unsigned long long>(s.index_blocks_skipped),
                  static_cast<unsigned long long>(s.heap_peak));
    add();
  }
  if (s.route_sample_rows > 0) {
    std::snprintf(line, sizeof(line),
                  "route: %s — sampled %llu rows -> %llu skyline, "
                  "est %.0f vs bbs cutoff %.0f\n",
                  s.access_path[0] != '\0' ? s.access_path : "?",
                  static_cast<unsigned long long>(s.route_sample_rows),
                  static_cast<unsigned long long>(s.route_sample_skyline),
                  s.route_estimated_skyline, s.route_bbs_threshold);
    add();
  }
  if (s.DegradedParallelism()) {
    std::snprintf(line, sizeof(line),
                  "WARNING: degraded parallelism — %llu threads requested "
                  "but only %llu used; timings are not a scaling "
                  "measurement\n",
                  static_cast<unsigned long long>(s.threads_requested),
                  static_cast<unsigned long long>(s.threads_used));
    add();
  }
  std::snprintf(line, sizeof(line),
                "time: sort %.4fs  filter %.4fs  total %.4fs  wall %.4fs\n",
                s.sort_seconds, s.filter_seconds, s.total_seconds(),
                report.wall_seconds);
  add();

  if (!report.plan.empty()) {
    out += "plan (per-operator):\n";
    out += RenderPlanStatsText(report.plan);
  }

  if (report.metrics != nullptr) {
    const MetricsSnapshot snapshot = report.metrics->Aggregate();
    if (!snapshot.counters.empty()) out += "counters:\n";
    for (const auto& c : snapshot.counters) {
      std::snprintf(line, sizeof(line), "  %-40s %lld\n", c.name.c_str(),
                    static_cast<long long>(c.value));
      add();
    }
    if (!snapshot.gauges.empty()) out += "gauges:\n";
    for (const auto& g : snapshot.gauges) {
      std::snprintf(line, sizeof(line), "  %-40s %lld\n", g.name.c_str(),
                    static_cast<long long>(g.value));
      add();
    }
    if (!snapshot.histograms.empty()) out += "latency histograms:\n";
    for (const auto& h : snapshot.histograms) {
      std::snprintf(
          line, sizeof(line),
          "  %-40s n=%llu mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms "
          "max=%.3fms\n",
          h.name.c_str(), static_cast<unsigned long long>(h.count),
          h.count > 0 ? static_cast<double>(h.sum_ns) /
                            static_cast<double>(h.count) / 1e6
                      : 0.0,
          static_cast<double>(h.QuantileEstimateNanos(0.50)) / 1e6,
          static_cast<double>(h.QuantileEstimateNanos(0.90)) / 1e6,
          static_cast<double>(h.QuantileEstimateNanos(0.99)) / 1e6,
          static_cast<double>(h.max_ns) / 1e6);
      add();
    }
  }

  if (report.trace != nullptr) {
    out += "trace spans (chronological):\n";
    for (const TraceEvent& event : report.trace->Snapshot()) {
      std::snprintf(line, sizeof(line), "  t%-3u %*s%-28s %.3fms\n",
                    event.thread_id, static_cast<int>(2 * event.depth), "",
                    event.name, static_cast<double>(event.duration_ns) / 1e6);
      add();
    }
    if (report.trace->dropped() > 0) {
      std::snprintf(line, sizeof(line),
                    "  (ring buffer dropped %llu earlier spans)\n",
                    static_cast<unsigned long long>(report.trace->dropped()));
      add();
    }
    if (report.trace->truncated() > 0) {
      std::snprintf(line, sizeof(line),
                    "  (%llu span names were truncated to %zu chars)\n",
                    static_cast<unsigned long long>(report.trace->truncated()),
                    TraceEvent::kNameCapacity - 1);
      add();
    }
  }
  return out;
}

void PublishRunStats(MetricsRegistry* metrics, std::string_view prefix,
                     const SkylineRunStats& stats) {
  if (metrics == nullptr) return;
  const std::string p(prefix);
  auto counter = [metrics, &p](const char* field, uint64_t value) {
    if (value > 0) metrics->GetCounter(p + "." + field).Add(value);
  };
  counter("runs", 1);
  counter("input_rows", stats.input_rows);
  counter("output_rows", stats.output_rows);
  counter("passes", stats.passes);
  counter("spilled_tuples", stats.spilled_tuples);
  counter("temp_pages_read", stats.temp_io.pages_read);
  counter("temp_pages_written", stats.temp_io.pages_written);
  counter("window_comparisons", stats.window_comparisons);
  counter("batch_comparisons", stats.batch_comparisons);
  counter("merge_comparisons", stats.merge_comparisons);
  counter("window_blocks_pruned", stats.window_blocks_pruned);
  counter("merge_blocks_pruned", stats.merge_blocks_pruned);
  counter("window_replacements", stats.window_replacements);
  counter("table_zone_blocks_pruned", stats.table_zone_blocks_pruned);
  counter("column_file_blocks_read", stats.column_file_blocks_read);
  counter("dict_probe_hits", stats.dict_probe_hits);
  counter("index_nodes_visited", stats.index_nodes_visited);
  counter("index_blocks_skipped", stats.index_blocks_skipped);
  counter("heap_peak", stats.heap_peak);
  counter("merge_candidates", stats.merge_candidates);
  counter("representative_prunes", stats.representative_prunes);
  counter("cascade_levels", stats.cascade_levels);
  counter("degraded_parallelism_runs", stats.DegradedParallelism() ? 1 : 0);
  counter("sort_runs_generated", stats.sort_stats.runs_generated);
  counter("sort_merge_levels", stats.sort_stats.merge_levels);
  counter("sort_pages_read", stats.sort_stats.io.pages_read);
  counter("sort_pages_written", stats.sort_stats.io.pages_written);
  counter("sort_key_pages", stats.sort_stats.key_io.TotalPages());
  metrics->GetGauge(p + ".threads_used")
      .Set(static_cast<int64_t>(stats.threads_used));
  metrics->GetGauge(p + ".sort_threads_used")
      .Set(static_cast<int64_t>(stats.sort_stats.threads_used));
  metrics->GetHistogram(p + ".sort_seconds")
      .ObserveSeconds(stats.sort_seconds);
  metrics->GetHistogram(p + ".filter_seconds")
      .ObserveSeconds(stats.filter_seconds);
}

}  // namespace skyline
