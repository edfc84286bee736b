// Machine-readable benchmark for the parallel SFS engine.
//
// Runs the full SFS computation (presort + filter) over an anti-correlated
// 5-dimensional table at each thread count and writes one JSON document —
// BENCH_sfs.json by default — so CI and scripts can track rows/sec without
// scraping human-oriented benchmark output. The document carries
// "schema_version" and embeds a full RunReport (stats + metrics + trace
// spans) per run alongside the original flat keys.
//
// Usage: parallel_sfs_bench [output.json]
//   SKYLINE_BENCH_SCALE=10   paper-scale table (1M rows)
//   SKYLINE_BENCH_THREADS=1,2,4,8   thread counts to sweep
//   SKYLINE_BENCH_REPS=3     repetitions per config (best wall time wins)
//   SKYLINE_BENCH_SCHEMES=1  add the partition-scheme sweeps: simulated
//                            shards ("partition_schemes" JSON section) and
//                            wall time on this host's cores per
//                            distribution ("partition_schemes_wall")

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/dominance_batch.h"
#include "core/partition.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "core/sfs_parallel.h"
#include "relation/column_store.h"
#include "sort/external_sort.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace bench {
namespace {

std::vector<size_t> ThreadCounts() {
  std::vector<size_t> counts;
  if (const char* s = std::getenv("SKYLINE_BENCH_THREADS")) {
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const long v = std::atol(item.c_str());
      if (v > 0) counts.push_back(static_cast<size_t>(v));
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

int Reps() {
  if (const char* s = std::getenv("SKYLINE_BENCH_REPS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<int>(v);
  }
  return 3;
}

const char* DistributionName(Distribution distribution) {
  switch (distribution) {
    case Distribution::kIndependent:
      return "independent";
    case Distribution::kCorrelated:
      return "correlated";
    case Distribution::kAntiCorrelated:
      return "anti_correlated";
  }
  return "unknown";
}

struct RunResult {
  size_t threads_requested = 0;
  SkylineRunStats stats;
  double wall_seconds = 0;
  /// Telemetry from the winning repetition, embedded into its RunReport.
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<TraceSink> trace;
};

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sfs.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  constexpr int kDims = 5;
  const Table& table =
      DistributionTableDims(Distribution::kAntiCorrelated, kDims);
  const SkylineSpec spec = MaxSpec(table, kDims);
  const int reps = Reps();

  std::vector<RunResult> results;
  for (size_t threads : ThreadCounts()) {
    RunResult best;
    best.threads_requested = threads;
    best.wall_seconds = -1;
    for (int rep = 0; rep < reps; ++rep) {
      auto metrics = std::make_unique<MetricsRegistry>();
      auto trace = std::make_unique<TraceSink>();
      ExecContext ctx;
      ctx.threads = threads;
      ctx.metrics = metrics.get();
      ctx.trace = trace.get();
      SkylineRunStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto result = ComputeSkyline(SkylineAlgorithm::kSfs, table, spec, ctx,
                                   "bench_psfs_out", &stats);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(result.ok()) << result.status().ToString();
      if (best.wall_seconds < 0 || wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.stats = stats;
        best.metrics = std::move(metrics);
        best.trace = std::move(trace);
      }
    }
    std::cerr << "threads=" << threads << " wall=" << best.wall_seconds
              << "s rows/s="
              << static_cast<uint64_t>(table.row_count() / best.wall_seconds)
              << " skyline=" << best.stats.output_rows << "\n";
    if (best.stats.DegradedParallelism()) {
      // Honesty over silence: a speedup chart from this host would flatten
      // not because the algorithm stopped scaling but because the host
      // could not grant the requested workers.
      LogWarning("requested " +
                 std::to_string(best.stats.threads_requested) +
                 " threads but ran with " +
                 std::to_string(best.stats.threads_used) +
                 " (degraded parallelism; speedup figures at this point "
                 "reflect the host, not the algorithm)");
    }
    results.push_back(std::move(best));
  }

  // Mixed-type paper workload: the 100-byte tuple whose attributes span
  // float64/int64/int32 plus a dictionary-encoded 60-byte payload DIFF.
  // Before the universal order-key transform this spec fell back to the
  // row-at-a-time comparator; now it lowers to the columnar kernel. Run
  // it both ways (forcing the row path via the test hook) to record the
  // fallback -> fast-path win.
  constexpr int kMixedDims = 5;
  const Table& mixed = MixedPaperTable(Distribution::kAntiCorrelated);
  const SkylineSpec mixed_spec =
      MixedSpec(mixed, kMixedDims, /*payload_diff=*/true);
  const size_t mixed_threads = ThreadCounts().back();
  struct MixedResult {
    const char* kernel_mode;
    SkylineRunStats stats;
    double wall_seconds = -1;
  };
  std::vector<MixedResult> mixed_results;
  for (const bool force_row : {true, false}) {
    SetForceRowDominancePath(force_row);
    MixedResult best;
    best.kernel_mode = force_row ? "row_fallback" : "columnar";
    for (int rep = 0; rep < reps; ++rep) {
      ExecContext ctx;
      ctx.threads = mixed_threads;
      SkylineRunStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto result = ComputeSkyline(SkylineAlgorithm::kSfs, mixed, mixed_spec,
                                   ctx, "bench_psfs_mixed_out", &stats);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(result.ok()) << result.status().ToString();
      if (best.wall_seconds < 0 || wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.stats = stats;
      }
    }
    SetForceRowDominancePath(false);
    std::cerr << "mixed kernel=" << best.kernel_mode
              << " wall=" << best.wall_seconds << "s rows/s="
              << static_cast<uint64_t>(mixed.row_count() / best.wall_seconds)
              << " skyline=" << best.stats.output_rows << "\n";
    mixed_results.push_back(std::move(best));
  }

  // ---- Index sweep (SKYLINE_BENCH_INDEX=1) ----
  // Correlated data is BBS's home turf: a tiny skyline lets zone-corner
  // dominance prune nearly every subtree, so the index path reads a small
  // fraction of the column-file blocks that full-scan SFS touches. The
  // sweep records the one-time sidecar build cost next to the per-query
  // win so the break-even point stays visible.
  struct IndexResult {
    const char* algorithm = "";
    SkylineRunStats stats;
    double wall_seconds = -1;
  };
  std::vector<IndexResult> index_results;
  double index_cluster_seconds = 0;
  double index_column_file_seconds = 0;
  double index_build_seconds = 0;
  uint64_t index_total_blocks = 0;
  std::unique_ptr<Table> index_table;
  const bool run_index = std::getenv("SKYLINE_BENCH_INDEX") != nullptr;
  if (run_index) {
    // The index path's deployment shape: z-order cluster the table once,
    // then build the sidecars against the clustered layout. All three
    // one-time costs are recorded next to the per-query win.
    const Table& raw =
        DistributionTableDims(Distribution::kCorrelated, kDims);
    {
      const auto start = std::chrono::steady_clock::now();
      auto clustered = ClusterTableZOrder(raw, "bench_psfs_index_table");
      index_cluster_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(clustered.ok()) << clustered.status().ToString();
      index_table =
          std::make_unique<Table>(std::move(clustered).value());
    }
    const Table& correlated = *index_table;
    const SkylineSpec corr_spec = MaxSpec(correlated, kDims);
    index_total_blocks = (correlated.row_count() + 63) / 64;

    auto timed = [](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      const Status st = fn();
      SKYLINE_CHECK(st.ok()) << st.ToString();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    index_column_file_seconds =
        timed([&] { return WriteTableColumnFile(correlated); });
    index_build_seconds =
        timed([&] { return WriteTableBlockIndex(correlated); });
    std::cerr << "index build: cluster " << index_cluster_seconds
              << "s, column file " << index_column_file_seconds
              << "s, z-order index " << index_build_seconds << "s\n";

    std::vector<char> reference_rows;
    for (const SkylineAlgorithm algorithm :
         {SkylineAlgorithm::kSfs, SkylineAlgorithm::kBbs}) {
      IndexResult best;
      best.algorithm = SkylineAlgorithmName(algorithm);
      for (int rep = 0; rep < reps; ++rep) {
        ExecContext ctx;
        SkylineRunStats stats;
        const auto start = std::chrono::steady_clock::now();
        auto result = ComputeSkyline(algorithm, correlated, corr_spec, ctx,
                                     "bench_psfs_index_out", &stats);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        SKYLINE_CHECK(result.ok()) << result.status().ToString();
        if (best.wall_seconds < 0 || wall < best.wall_seconds) {
          best.wall_seconds = wall;
          best.stats = stats;
        }
        if (rep == 0) {
          // Cross-algorithm byte-identity: the index path must emit the
          // exact SFS bytes, not merely the same multiset.
          std::vector<char> rows;
          SKYLINE_CHECK(result.value().ReadAllRows(&rows).ok());
          if (algorithm == SkylineAlgorithm::kSfs) {
            reference_rows = std::move(rows);
          } else {
            SKYLINE_CHECK(rows == reference_rows)
                << "BBS output diverged from SFS bytes";
          }
        }
      }
      std::cerr << "index algo=" << best.algorithm
                << " wall=" << best.wall_seconds
                << "s blocks_skipped=" << best.stats.index_blocks_skipped
                << "/" << index_total_blocks
                << " skyline=" << best.stats.output_rows << "\n";
      index_results.push_back(std::move(best));
    }
  }

  // ---- Partition-scheme sweep (SKYLINE_BENCH_SCHEMES=1) ----
  // Simulated shards: the filter is driven directly with a forced block
  // count, so the merge-work numbers are partition-count effects, not
  // host-core effects — an 8-way sweep measures the same comparisons on a
  // laptop and in CI. Wall times here are *not* speedup figures.
  struct SchemeResult {
    const char* scheme = "";
    const char* merge_mode = "";
    SkylineRunStats stats;
    double wall_seconds = 0;
    bool byte_identical = true;
  };
  std::vector<SchemeResult> scheme_results;
  struct WallSchemeResult {
    const char* distribution = "";
    const char* scheme = "";
    const char* merge_mode = "";
    size_t representatives = 0;
    SkylineRunStats stats;
    double presort_seconds = 0;
    double filter_seconds = 0;
  };
  std::vector<WallSchemeResult> wall_results;
  size_t wall_threads = 0;
  constexpr size_t kSimulatedShards = 8;
  const bool run_schemes = std::getenv("SKYLINE_BENCH_SCHEMES") != nullptr;
  if (run_schemes) {
    Env* env = BenchEnv();
    TempFileManager temp_files(env, "bench_psfs_schemes");
    const auto ordering = MakeNestedSkylineOrdering(spec);
    auto sorted_or =
        SortHeapFile(env, &temp_files, table.path(), spec.schema().row_width(),
                     *ordering, SortOptions{}, ExecContext(), nullptr);
    SKYLINE_CHECK(sorted_or.ok()) << sorted_or.status().ToString();
    const std::string sorted = std::move(sorted_or).value();
    const size_t width = spec.schema().row_width();

    auto run_one = [&](PartitionSchemeKind kind, ParallelMergeMode mode,
                       size_t rep_count, std::vector<char>* rows_out,
                       SkylineRunStats* stats) {
      ParallelSfsOptions popt;
      popt.threads = kSimulatedShards;  // forced shard count, not a clamp
      popt.min_block_rows = 1;
      popt.partition = kind;
      popt.merge_mode = mode;
      popt.representatives = rep_count;
      rows_out->clear();
      const auto start = std::chrono::steady_clock::now();
      const Status st = ParallelSfsFilter(
          env, sorted, spec, popt,
          [&](const char* row) {
            rows_out->insert(rows_out->end(), row, row + width);
            return Status::OK();
          },
          stats);
      SKYLINE_CHECK(st.ok()) << st.ToString();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };

    // The recorded baseline is the v1 configuration: stride partitions,
    // all-pairs merge, no representatives.
    std::vector<char> baseline_rows;
    SchemeResult baseline;
    baseline.scheme = PartitionSchemeName(PartitionSchemeKind::kStride);
    baseline.merge_mode = "all_pairs";
    baseline.wall_seconds =
        run_one(PartitionSchemeKind::kStride, ParallelMergeMode::kAllPairs, 0,
                &baseline_rows, &baseline.stats);
    scheme_results.push_back(baseline);

    std::vector<char> rows;
    for (PartitionSchemeKind kind :
         {PartitionSchemeKind::kStride, PartitionSchemeKind::kGrid,
          PartitionSchemeKind::kAngular}) {
      SchemeResult r;
      r.scheme = PartitionSchemeName(kind);
      r.merge_mode = "filtered_cascade";
      r.wall_seconds = run_one(kind, ParallelMergeMode::kFilteredCascade,
                               ParallelSfsOptions().representatives, &rows,
                               &r.stats);
      r.byte_identical = rows == baseline_rows;
      SKYLINE_CHECK(r.byte_identical)
          << "scheme " << r.scheme << " diverged from the baseline skyline";
      std::cerr << "scheme=" << r.scheme
                << " merge_comparisons=" << r.stats.merge_comparisons
                << " (all_pairs=" << baseline.stats.merge_comparisons
                << ", reduction="
                << (r.stats.merge_comparisons > 0
                        ? static_cast<double>(
                              baseline.stats.merge_comparisons) /
                              static_cast<double>(r.stats.merge_comparisons)
                        : 0.0)
                << "x)\n";
      scheme_results.push_back(std::move(r));
    }

    // Real cores: what ComputeSkyline runs at threads = hardware — the
    // entropy presort, then the block-parallel filter with its production
    // block floor — once per scheme, merge mode and representative count,
    // for each distribution. The presort is shared by every configuration
    // of a distribution, so it is timed once; the filter is best-of-reps.
    ExecContext wall_ctx;
    wall_ctx.threads = 0;
    wall_threads = wall_ctx.WorkerThreads();
    for (Distribution dist :
         {Distribution::kAntiCorrelated, Distribution::kIndependent,
          Distribution::kCorrelated}) {
      const Table& wall_table = DistributionTableDims(dist, kDims);
      const SkylineSpec wall_spec = MaxSpec(wall_table, kDims);
      SfsOptions presort;  // Presort::kEntropy
      SkylineRunStats presort_stats;
      auto wall_sorted_or = SfsPresort(wall_table, wall_spec, presort,
                                       wall_ctx, &temp_files, &presort_stats);
      SKYLINE_CHECK(wall_sorted_or.ok()) << wall_sorted_or.status().ToString();
      const std::string wall_sorted = std::move(wall_sorted_or).value();
      std::vector<char> reference;
      for (PartitionSchemeKind kind :
           {PartitionSchemeKind::kStride, PartitionSchemeKind::kGrid,
            PartitionSchemeKind::kAngular}) {
        for (const auto& [mode, rep_count] :
             {std::pair{ParallelMergeMode::kFilteredCascade, size_t{16}},
              std::pair{ParallelMergeMode::kFilteredCascade, size_t{0}},
              std::pair{ParallelMergeMode::kAllPairs, size_t{0}}}) {
          WallSchemeResult r;
          r.distribution = DistributionName(dist);
          r.scheme = PartitionSchemeName(kind);
          r.merge_mode = mode == ParallelMergeMode::kAllPairs
                             ? "all_pairs"
                             : "filtered_cascade";
          r.representatives = rep_count;
          r.presort_seconds = presort_stats.sort_seconds;
          r.filter_seconds = -1;
          for (int rep = 0; rep < reps; ++rep) {
            ParallelSfsOptions popt;
            popt.threads = wall_threads;
            popt.partition = kind;
            popt.merge_mode = mode;
            popt.representatives = rep_count;
            std::vector<char> rows;
            SkylineRunStats stats;
            const auto start = std::chrono::steady_clock::now();
            const Status st = ParallelSfsFilter(
                env, wall_sorted, wall_spec, popt,
                [&](const char* row) {
                  rows.insert(rows.end(), row, row + width);
                  return Status::OK();
                },
                &stats);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            SKYLINE_CHECK(st.ok()) << st.ToString();
            if (reference.empty()) reference = rows;
            SKYLINE_CHECK(rows == reference)
                << r.scheme << "/" << r.merge_mode << " diverged on "
                << r.distribution;
            if (r.filter_seconds < 0 || wall < r.filter_seconds) {
              r.filter_seconds = wall;
              r.stats = stats;
            }
          }
          std::cerr << "wall " << r.distribution << " scheme=" << r.scheme
                    << " merge=" << r.merge_mode
                    << " reps=" << r.representatives
                    << " presort=" << r.presort_seconds
                    << "s filter=" << r.filter_seconds << "s\n";
          wall_results.push_back(std::move(r));
        }
      }
      temp_files.Delete(wall_sorted);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.KeyValue("schema_version", RunReport::kSchemaVersion);
  json.KeyValue("benchmark", "parallel_sfs");
  json.KeyValue("distribution", "anti_correlated");
  json.KeyValue("dimensions", kDims);
  json.KeyValue("rows", table.row_count());
  json.KeyValue("repetitions", reps);
  json.KeyValue("hardware_threads", std::thread::hardware_concurrency());
  json.Key("runs");
  json.BeginArray();
  for (const RunResult& r : results) {
    const SkylineRunStats& s = r.stats;
    json.BeginObject();
    json.KeyValue("threads", static_cast<uint64_t>(r.threads_requested));
    json.KeyValue("threads_requested", s.threads_requested);
    json.KeyValue("threads_used", static_cast<uint64_t>(s.threads_used));
    json.KeyValue("degraded_parallelism", s.DegradedParallelism());
    json.KeyValue("sort_threads_used",
                  static_cast<uint64_t>(s.sort_stats.threads_used));
    json.KeyValue("wall_seconds", r.wall_seconds);
    json.KeyValue("rows_per_sec",
                  static_cast<uint64_t>(table.row_count() / r.wall_seconds));
    json.KeyValue("sort_seconds", s.sort_seconds);
    json.KeyValue("filter_seconds", s.filter_seconds);
    json.KeyValue("block_scan_seconds", s.block_scan_seconds);
    json.KeyValue("block_merge_seconds", s.block_merge_seconds);
    json.KeyValue("passes", s.passes);
    json.KeyValue("window_comparisons", s.window_comparisons);
    json.KeyValue("merge_comparisons", s.merge_comparisons);
    json.KeyValue("batch_comparisons", s.batch_comparisons);
    json.KeyValue("window_blocks_pruned", s.window_blocks_pruned);
    json.KeyValue("merge_blocks_pruned", s.merge_blocks_pruned);
    json.KeyValue("partition_scheme", s.partition_scheme);
    json.KeyValue("merge_candidates", s.merge_candidates);
    json.KeyValue("representative_prunes", s.representative_prunes);
    json.KeyValue("cascade_levels", s.cascade_levels);
    json.KeyValue("scan_avg_busy_workers", s.scan_avg_busy_workers);
    json.KeyValue("merge_avg_busy_workers", s.merge_avg_busy_workers);
    json.KeyValue("scan_merge_overlap_seconds", s.scan_merge_overlap_seconds);
    json.KeyValue("table_zone_blocks_pruned", s.table_zone_blocks_pruned);
    json.KeyValue("column_file_blocks_read", s.column_file_blocks_read);
    json.KeyValue("dict_probe_hits", s.dict_probe_hits);
    json.KeyValue("zone_map_source", s.zone_map_source);
    json.KeyValue("dominance_kernel", s.dominance_kernel);
    json.KeyValue(
        "comparisons_per_sec",
        static_cast<uint64_t>(r.wall_seconds > 0
                                  ? static_cast<double>(s.window_comparisons) /
                                        r.wall_seconds
                                  : 0));
    json.KeyValue("output_rows", s.output_rows);
    // The versioned observability artifact for the winning repetition:
    // full stats, aggregated metrics, and the trace span log.
    RunReport report;
    report.tool = "parallel_sfs_bench";
    report.algorithm = "sfs";
    report.stats = s;
    report.wall_seconds = r.wall_seconds;
    report.numbers.emplace_back(
        "threads_requested", static_cast<double>(r.threads_requested));
    report.metrics = r.metrics.get();
    report.trace = r.trace.get();
    json.Key("report");
    AppendRunReportObject(&json, report);
    json.EndObject();
  }
  json.EndArray();
  json.Key("mixed_workload");
  json.BeginObject();
  json.KeyValue("rows", mixed.row_count());
  json.KeyValue("dimensions", kMixedDims);
  json.KeyValue("attribute_types", "f64,f64,i64,i64,i32");
  json.KeyValue("payload_diff", "dict60");
  json.KeyValue("threads", static_cast<uint64_t>(mixed_threads));
  if (mixed_results.size() == 2 && mixed_results[1].wall_seconds > 0) {
    json.KeyValue("row_over_columnar_speedup",
                  mixed_results[0].wall_seconds /
                      mixed_results[1].wall_seconds);
  }
  json.Key("runs");
  json.BeginArray();
  for (const MixedResult& r : mixed_results) {
    const SkylineRunStats& s = r.stats;
    json.BeginObject();
    json.KeyValue("kernel_mode", r.kernel_mode);
    json.KeyValue("dominance_kernel", s.dominance_kernel);
    json.KeyValue("wall_seconds", r.wall_seconds);
    json.KeyValue("rows_per_sec",
                  static_cast<uint64_t>(mixed.row_count() / r.wall_seconds));
    json.KeyValue("filter_seconds", s.filter_seconds);
    json.KeyValue("window_comparisons", s.window_comparisons);
    json.KeyValue("batch_comparisons", s.batch_comparisons);
    json.KeyValue("window_blocks_pruned", s.window_blocks_pruned);
    json.KeyValue("dict_probe_hits", s.dict_probe_hits);
    json.KeyValue("output_rows", s.output_rows);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (run_index && index_table != nullptr) {
    json.Key("index");
    json.BeginObject();
    json.KeyValue("distribution", "correlated");
    json.KeyValue("dimensions", kDims);
    json.KeyValue("rows", index_table->row_count());
    json.KeyValue("total_blocks", index_total_blocks);
    json.KeyValue("cluster_seconds", index_cluster_seconds);
    json.KeyValue("column_file_build_seconds", index_column_file_seconds);
    json.KeyValue("index_build_seconds", index_build_seconds);
    if (index_results.size() == 2 && index_results[1].wall_seconds > 0) {
      json.KeyValue("sfs_over_bbs_speedup",
                    index_results[0].wall_seconds /
                        index_results[1].wall_seconds);
    }
    json.Key("runs");
    json.BeginArray();
    for (const IndexResult& r : index_results) {
      const SkylineRunStats& s = r.stats;
      json.BeginObject();
      json.KeyValue("algorithm", r.algorithm);
      json.KeyValue("wall_seconds", r.wall_seconds);
      json.KeyValue("rows_per_sec",
                    static_cast<uint64_t>(index_table->row_count() /
                                          r.wall_seconds));
      json.KeyValue("index_nodes_visited", s.index_nodes_visited);
      json.KeyValue("index_blocks_skipped", s.index_blocks_skipped);
      json.KeyValue("heap_peak", s.heap_peak);
      if (index_total_blocks > 0) {
        json.KeyValue("blocks_skipped_fraction",
                      static_cast<double>(s.index_blocks_skipped) /
                          static_cast<double>(index_total_blocks));
      }
      json.KeyValue("window_comparisons", s.window_comparisons);
      json.KeyValue("output_rows", s.output_rows);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  if (run_schemes) {
    const uint64_t all_pairs_merge = scheme_results.front().stats.merge_comparisons;
    json.Key("partition_schemes");
    json.BeginObject();
    json.KeyValue("simulated_shards", static_cast<uint64_t>(kSimulatedShards));
    json.KeyValue("note",
                  "shards are simulated (forced block count); "
                  "merge-work counters are partition effects, wall times "
                  "are not speedup figures");
    json.KeyValue("all_pairs_merge_comparisons", all_pairs_merge);
    json.Key("runs");
    json.BeginArray();
    for (const SchemeResult& r : scheme_results) {
      const SkylineRunStats& s = r.stats;
      json.BeginObject();
      json.KeyValue("scheme", r.scheme);
      json.KeyValue("merge_mode", r.merge_mode);
      json.KeyValue("wall_seconds", r.wall_seconds);
      json.KeyValue("merge_candidates", s.merge_candidates);
      json.KeyValue("merge_comparisons", s.merge_comparisons);
      json.KeyValue("batch_comparisons", s.batch_comparisons);
      json.KeyValue("merge_blocks_pruned", s.merge_blocks_pruned);
      json.KeyValue("representative_prunes", s.representative_prunes);
      json.KeyValue("cascade_levels", s.cascade_levels);
      json.KeyValue("scan_avg_busy_workers", s.scan_avg_busy_workers);
      json.KeyValue("merge_avg_busy_workers", s.merge_avg_busy_workers);
      json.KeyValue("scan_merge_overlap_seconds",
                    s.scan_merge_overlap_seconds);
      json.KeyValue("dict_probe_hits", s.dict_probe_hits);
      json.KeyValue("output_rows", s.output_rows);
      json.KeyValue("byte_identical_to_baseline", r.byte_identical);
      if (s.merge_comparisons > 0) {
        json.KeyValue("merge_reduction_vs_all_pairs",
                      static_cast<double>(all_pairs_merge) /
                          static_cast<double>(s.merge_comparisons));
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.Key("partition_schemes_wall");
    json.BeginObject();
    json.KeyValue("threads", static_cast<uint64_t>(wall_threads));
    json.KeyValue("presort", "entropy");
    json.KeyValue("note",
                  "real workers (threads = hardware); wall_seconds = "
                  "presort (shared per distribution) + best-of-reps filter");
    json.Key("runs");
    json.BeginArray();
    for (const WallSchemeResult& r : wall_results) {
      const SkylineRunStats& s = r.stats;
      json.BeginObject();
      json.KeyValue("distribution", r.distribution);
      json.KeyValue("scheme", r.scheme);
      json.KeyValue("merge_mode", r.merge_mode);
      json.KeyValue("representatives", static_cast<uint64_t>(r.representatives));
      json.KeyValue("threads_used", s.threads_used);
      json.KeyValue("presort_seconds", r.presort_seconds);
      json.KeyValue("filter_seconds", r.filter_seconds);
      json.KeyValue("wall_seconds", r.presort_seconds + r.filter_seconds);
      json.KeyValue("block_scan_seconds", s.block_scan_seconds);
      json.KeyValue("block_merge_seconds", s.block_merge_seconds);
      json.KeyValue("window_comparisons", s.window_comparisons);
      json.KeyValue("merge_comparisons", s.merge_comparisons);
      json.KeyValue("merge_candidates", s.merge_candidates);
      json.KeyValue("representative_prunes", s.representative_prunes);
      json.KeyValue("output_rows", s.output_rows);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  out << json.TakeString();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace skyline

int main(int argc, char** argv) { return skyline::bench::Main(argc, argv); }
