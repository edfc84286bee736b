#include "core/sfs_parallel.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "sql/executor.h"
#include "storage/temp_file_manager.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class SfsParallelTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

/// Criteria over a0..a{dims-1}: alternating MAX/MIN, optionally with a0
/// turned into a DIFF partition column.
SkylineSpec MixedSpec(const Table& t, int dims, bool with_diff) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    Directive d = (i % 2 == 0) ? Directive::kMax : Directive::kMin;
    if (with_diff && i == 0) d = Directive::kDiff;
    criteria.push_back({"a" + std::to_string(i), d});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Presorts `t` with the nested skyline ordering (the deterministic order
/// both the sequential baseline and the parallel runs share) and returns
/// the sorted file's path.
std::string Presort(Env* env, TempFileManager* temp_files, const Table& t,
                    const SkylineSpec& spec) {
  std::unique_ptr<RowOrdering> ordering = MakeNestedSkylineOrdering(spec);
  auto sorted = SortHeapFile(env, temp_files, t.path(),
                             t.schema().row_width(), *ordering, SortOptions{},
                             ExecContext(),
                             nullptr);
  SKYLINE_CHECK(sorted.ok()) << sorted.status().ToString();
  return std::move(sorted).value();
}

/// Runs the block-parallel filter and returns the concatenated output rows.
Result<std::vector<char>> RunParallel(Env* env, const std::string& sorted,
                                      const SkylineSpec& spec,
                                      const ParallelSfsOptions& options,
                                      SkylineRunStats* stats = nullptr) {
  std::vector<char> out;
  const size_t width = spec.schema().row_width();
  SKYLINE_RETURN_IF_ERROR(ParallelSfsFilter(
      env, sorted, spec, options,
      [&out, width](const char* row) {
        out.insert(out.end(), row, row + width);
        return Status::OK();
      },
      stats));
  return out;
}

// The core determinism guarantee: for every thread count, block-parallel
// SFS emits byte-for-byte the rows sequential SFS emits, across
// dimensionalities, correlated/anti-correlated data, and DIFF + MIN/MAX
// spec mixes.
TEST_F(SfsParallelTest, ByteIdenticalToSequentialAcrossThreadCounts) {
  int config = 0;
  for (int dims : {2, 5, 7}) {
    for (Distribution dist :
         {Distribution::kCorrelated, Distribution::kAntiCorrelated}) {
      for (bool with_diff : {false, true}) {
        GeneratorOptions gen;
        gen.num_rows = 3000;
        gen.num_attributes = dims;
        gen.payload_bytes = 12;
        gen.distribution = dist;
        gen.seed = 100 + config;
        // Small domains give the DIFF column a handful of real groups and
        // force heavy tie-breaking in the sort order.
        gen.small_domain = with_diff;
        const std::string tag = "cfg" + std::to_string(config);
        ASSERT_OK_AND_ASSIGN(Table t,
                             GenerateTable(env_.get(), "t_" + tag, gen));
        SkylineSpec spec = MixedSpec(t, dims, with_diff);

        SfsOptions seq;
        seq.presort = Presort::kNested;
        seq.use_projection = (config % 2 == 0);  // cover both window modes
        ASSERT_OK_AND_ASSIGN(
            Table baseline,
            ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq_" + tag, nullptr));
        const std::vector<char> expected = ReadAll(baseline);

        TempFileManager temp_files(env_.get(), "psort_" + tag);
        const std::string sorted = Presort(env_.get(), &temp_files, t, spec);
        for (size_t threads : {1u, 2u, 4u, 8u}) {
          ParallelSfsOptions popt;
          popt.use_projection = seq.use_projection;
          popt.threads = threads;
          popt.min_block_rows = 1;  // force one block per worker
          popt.chunk_rows = 97;     // fine, unaligned stride chunks
          SkylineRunStats stats;
          ASSERT_OK_AND_ASSIGN(
              std::vector<char> got,
              RunParallel(env_.get(), sorted, spec, popt, &stats));
          ASSERT_EQ(got.size(), expected.size())
              << "dims=" << dims << " dist=" << static_cast<int>(dist)
              << " diff=" << with_diff << " threads=" << threads;
          ASSERT_TRUE(std::memcmp(got.data(), expected.data(), got.size()) ==
                      0)
              << "dims=" << dims << " dist=" << static_cast<int>(dist)
              << " diff=" << with_diff << " threads=" << threads;
          EXPECT_EQ(stats.output_rows, baseline.row_count());
          EXPECT_EQ(stats.threads_used, threads);
        }
        ++config;
      }
    }
  }
}

// Tiny per-worker windows force the in-memory multi-pass fallback inside
// each block; the result must still be the exact skyline (order-insensitive
// check against the sequential filter, which emits pass-major order).
TEST_F(SfsParallelTest, TinyWindowMultiPassMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 4000, 7, 9));
  SkylineSpec spec = MixedSpec(t, 7, /*with_diff=*/false);

  SfsOptions seq;
  seq.presort = Presort::kNested;
  seq.window_pages = 1;
  seq.use_projection = false;
  SkylineRunStats seq_stats;
  ASSERT_OK_AND_ASSIGN(Table baseline,
                       ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq", &seq_stats));
  ASSERT_GT(seq_stats.passes, 1u) << "window too large to exercise spilling";
  std::vector<char> expected_rows = ReadAll(baseline);

  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = Presort(env_.get(), &temp_files, t, spec);
  ParallelSfsOptions popt;
  popt.window_pages = 1;
  popt.use_projection = false;
  popt.threads = 4;
  popt.min_block_rows = 1;
  popt.chunk_rows = 64;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunParallel(env_.get(), sorted, spec, popt, &stats));
  const size_t width = spec.schema().row_width();
  EXPECT_GT(stats.passes, 1u);
  EXPECT_EQ(RowMultiset(got.data(), got.size() / width, width),
            RowMultiset(expected_rows.data(), baseline.row_count(), width));
}

// End-to-end through the ExecContext::threads knob (table large enough
// that min_block_rows still yields multiple blocks) — output must equal the
// sequential computation byte for byte, and match the oracle.
TEST_F(SfsParallelTest, ComputeSkylineSfsThreadsKnob) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 10'000, 5, 11));
  SkylineSpec spec = MixedSpec(t, 5, /*with_diff=*/false);
  ASSERT_OK_AND_ASSIGN(
      Table baseline, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "seq", nullptr));
  const std::vector<char> expected = ReadAll(baseline);

  ExecContext par;
  par.threads = 4;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, SfsOptions{}, par, "par", &stats));
  std::vector<char> got = ReadAll(sky);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(std::memcmp(got.data(), expected.data(), got.size()) == 0);
  // The knob is clamped to the hardware: on a multi-core host the parallel
  // filter runs (10k rows / 4096 min block = 2 blocks) and the knob reaches
  // the sorter; a 1-core host falls back to the sequential filter entirely.
  const size_t clamped = par.WorkerThreads();
  if (clamped > 1) {
    EXPECT_EQ(stats.threads_used, 2u);
    EXPECT_GT(stats.sort_stats.threads_used, 1u);
  } else {
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(stats.sort_stats.threads_used, 1u);
  }
  EXPECT_EQ(RowMultiset(got.data(), sky.row_count(),
                        spec.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

// The SQL session knob overrides per-query options and must not change
// results.
TEST_F(SfsParallelTest, SqlThreadsKnobMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 9000, 4, 13));
  Catalog catalog(env_.get());
  catalog.Register("T", &t);
  const std::string sql =
      "SELECT * FROM T SKYLINE OF a0 MAX, a1 MIN, a2 MAX, a3 MIN";

  auto collect = [&](size_t threads, std::vector<std::string>* rows) {
    SqlOptions options;
    options.exec.threads = threads;
    options.temp_prefix = "sqlq_" + std::to_string(threads);
    return ExecuteSql(catalog, sql, options,
                      [rows](const RowView& row) {
                        rows->emplace_back(row.data(),
                                           row.schema().row_width());
                        return Status::OK();
                      });
  };
  std::vector<std::string> sequential, parallel;
  ASSERT_OK(collect(1, &sequential));
  ASSERT_OK(collect(4, &parallel));
  EXPECT_EQ(parallel, sequential);
  EXPECT_FALSE(sequential.empty());
}

}  // namespace
}  // namespace skyline
