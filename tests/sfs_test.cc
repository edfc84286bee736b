#include "core/sfs.h"

#include "baselines/naive.h"
#include "core/scoring.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class SfsTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

SkylineSpec MaxSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST_F(SfsTest, MatchesOracleOnRandomData) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 1));
  SkylineSpec spec = MaxSpec(t, 4);
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_EQ(stats.input_rows, 2000u);
  EXPECT_EQ(stats.output_rows, sky.row_count());
  EXPECT_EQ(stats.passes, 1u);  // default window holds everything
  EXPECT_EQ(stats.ExtraPages(), 0u);
}

TEST_F(SfsTest, AllVariantsAgree) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 5, 2));
  SkylineSpec spec = MaxSpec(t, 5);
  const auto oracle = OracleSkylineMultiset(t, spec);
  int run = 0;
  for (Presort presort : {Presort::kNested, Presort::kEntropy}) {
    for (bool projection : {false, true}) {
      SfsOptions opts;
      opts.presort = presort;
      opts.use_projection = projection;
      ASSERT_OK_AND_ASSIGN(
          Table sky, ComputeSkylineSfs(t, spec, opts,
                                       ExecContext(),
                                       "out" + std::to_string(run++), nullptr));
      std::vector<char> rows = ReadAll(sky);
      EXPECT_EQ(
          RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
          oracle)
          << "presort=" << static_cast<int>(presort) << " proj=" << projection;
    }
  }
}

TEST_F(SfsTest, MultiPassWithTinyWindowMatchesOracle) {
  // 7 dims => big skyline; a 1-page window forces several passes.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 3000, 7, 3));
  SkylineSpec spec = MaxSpec(t, 7);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_GT(stats.passes, 1u);
  EXPECT_GT(stats.spilled_tuples, 0u);
  EXPECT_GT(stats.ExtraPages(), 0u);
  // Every spilled page is written once and read once.
  EXPECT_EQ(stats.temp_io.pages_read, stats.temp_io.pages_written);
}

TEST_F(SfsTest, PerPassTraceSpansMatchPassCount) {
  // Same shape as the tiny-window test above: several filter passes, each
  // of which must emit exactly one "filter-pass-<n>" span.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 3000, 7, 3));
  SkylineSpec spec = MaxSpec(t, 7);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  TraceSink trace;
  ExecContext ctx;
  ctx.trace = &trace;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, opts, ctx, "out", &stats));
  ASSERT_GT(stats.passes, 1u);
  for (uint64_t pass = 1; pass <= stats.passes; ++pass) {
    EXPECT_EQ(trace.CountSpans("filter-pass-" + std::to_string(pass)), 1u)
        << "pass " << pass << " of " << stats.passes;
  }
  EXPECT_EQ(
      trace.CountSpans("filter-pass-" + std::to_string(stats.passes + 1)),
      0u);
  EXPECT_EQ(trace.CountSpans("presort"), 1u);
  EXPECT_EQ(trace.CountSpans("run-formation"), 1u);
}

TEST_F(SfsTest, ProjectionReducesPasses) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 3000, 7, 3,
                                                 /*payload_bytes=*/72));
  SkylineSpec spec = MaxSpec(t, 7);
  SfsOptions narrow;
  narrow.window_pages = 2;
  narrow.use_projection = false;
  SkylineRunStats no_proj;
  ASSERT_OK(
      ComputeSkylineSfs(t, spec, narrow, ExecContext(), "o1", &no_proj).status());
  narrow.use_projection = true;
  SkylineRunStats with_proj;
  ASSERT_OK(
      ComputeSkylineSfs(t, spec, narrow, ExecContext(), "o2", &with_proj).status());
  // Projected entries are 28 bytes vs 100-byte tuples: >3x window capacity,
  // so strictly fewer (or equal) passes and spills.
  EXPECT_LE(with_proj.passes, no_proj.passes);
  EXPECT_LT(with_proj.spilled_tuples, no_proj.spilled_tuples);
}

TEST_F(SfsTest, PipelinedIteratorStopsEarly) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 5, 4));
  SkylineSpec spec = MaxSpec(t, 5);
  // Presort manually, then pull only 3 rows from the iterator.
  TempFileManager tmp(env_.get(), "tmp");
  EntropyOrdering ord(&spec, t);
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, t.path(), t.schema().row_width(), ord,
                   SortOptions{}, ExecContext(), nullptr));
  SfsIterator iter(env_.get(), &tmp, sorted, &spec, 100, true, nullptr);
  ASSERT_OK(iter.Open());
  std::vector<std::string> first3;
  for (int i = 0; i < 3; ++i) {
    const char* row = iter.Next();
    ASSERT_NE(row, nullptr);
    first3.emplace_back(row, t.schema().row_width());
  }
  // Each of the 3 must be a genuine skyline tuple.
  const auto oracle = OracleSkylineMultiset(t, spec);
  for (const auto& row : first3) EXPECT_TRUE(oracle.count(row));
}

TEST_F(SfsTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", &stats));
  EXPECT_EQ(sky.row_count(), 0u);
}

TEST_F(SfsTest, SingleRow) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{3, 4}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 1u);
}

TEST_F(SfsTest, AllTuplesEquivalent) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{5, 5}, {5, 5}, {5, 5}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", nullptr));
  // All equivalent rows are skyline members.
  EXPECT_EQ(sky.row_count(), 3u);
}

TEST_F(SfsTest, DiffDirectiveMatchesOracle) {
  // Small group domain so groups are non-trivial.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 1200;
  gen.num_attributes = 4;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 30;
  gen.seed = 5;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax},
                                     {"a3", Directive::kMin}}));
  for (Presort presort : {Presort::kNested, Presort::kEntropy}) {
    SfsOptions opts;
    opts.presort = presort;
    SkylineRunStats stats;
    ASSERT_OK_AND_ASSIGN(Table sky,
                         ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        OracleSkylineMultiset(t, spec));
  }
}

TEST_F(SfsTest, DiffWithTinyWindowMultiPass) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 2000;
  gen.num_attributes = 5;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 50;
  gen.seed = 6;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax},
                                     {"a3", Directive::kMax},
                                     {"a4", Directive::kMax}}));
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(SfsTest, UnsortedInputRejectedWithPresortNone) {
  // Ascending chain: every tuple dominates its predecessor — maximally
  // unsorted for a MAX skyline.
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}, {3, 3}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  SfsOptions opts;
  opts.presort = Presort::kNone;
  auto result = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(SfsTest, PresortNoneAcceptsProperlySortedInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 500, 3, 7));
  SkylineSpec spec = MaxSpec(t, 3);
  // Sort externally, rebuild a table from the sorted file, then run with
  // kNone.
  TempFileManager tmp(env_.get(), "tmp");
  auto ord = MakeNestedSkylineOrdering(spec);
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, t.path(), t.schema().row_width(), *ord,
                   SortOptions{}, ExecContext(), nullptr));
  std::vector<ColumnStats> stats;
  for (size_t c = 0; c < t.schema().num_columns(); ++c)
    stats.push_back(t.stats(c));
  ASSERT_OK_AND_ASSIGN(Table sorted_table,
                       Table::Attach(t.schema(), env_.get(), sorted, stats));
  SfsOptions opts;
  opts.presort = Presort::kNone;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(sorted_table, spec, opts, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(SfsTest, OutputIsInMonotoneOrder) {
  // SFS output preserves the presort order (an "interesting order" for
  // downstream operators).
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1000, 4, 8));
  SkylineSpec spec = MaxSpec(t, 4);
  SfsOptions opts;
  opts.presort = Presort::kEntropy;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", nullptr));
  EntropyScorer scorer(&spec, t);
  std::vector<char> rows = ReadAll(sky);
  const size_t w = t.schema().row_width();
  for (uint64_t i = 1; i < sky.row_count(); ++i) {
    EXPECT_GE(scorer.Score(rows.data() + (i - 1) * w),
              scorer.Score(rows.data() + i * w));
  }
}

TEST_F(SfsTest, ResiduePlusSkylineEqualsInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 800, 4, 9));
  SkylineSpec spec = MaxSpec(t, 4);
  SfsOptions opts;
  opts.residue_path = "residue";
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", nullptr));
  std::vector<ColumnStats> stats;
  for (size_t c = 0; c < t.schema().num_columns(); ++c)
    stats.push_back(t.stats(c));
  ASSERT_OK_AND_ASSIGN(Table residue,
                       Table::Attach(t.schema(), env_.get(), "residue", stats));
  EXPECT_EQ(sky.row_count() + residue.row_count(), t.row_count());
  // Union of multisets equals input multiset.
  const size_t w = t.schema().row_width();
  std::vector<char> all = ReadAll(t);
  auto want = RowMultiset(all.data(), t.row_count(), w);
  std::vector<char> sky_rows = ReadAll(sky);
  std::vector<char> res_rows = ReadAll(residue);
  auto got = RowMultiset(sky_rows.data(), sky.row_count(), w);
  for (const auto& r : RowMultiset(res_rows.data(), residue.row_count(), w)) {
    got.insert(r);
  }
  EXPECT_EQ(got, want);
}

TEST_F(SfsTest, SchemaMismatchRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(Table o, MakeIntTable(env_.get(), "o", 3, {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(o.schema(), {{"a2", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SfsTest, StatsAccounting) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 5000, 6, 10));
  SkylineSpec spec = MaxSpec(t, 6);
  SfsOptions opts;
  opts.window_pages = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats));
  EXPECT_EQ(stats.input_rows, 5000u);
  EXPECT_EQ(stats.output_rows, sky.row_count());
  EXPECT_GT(stats.window_comparisons, 0u);
  EXPECT_GT(stats.sort_stats.runs_generated, 0u);
  EXPECT_GE(stats.sort_seconds, 0.0);
  EXPECT_GE(stats.filter_seconds, 0.0);
  EXPECT_EQ(stats.window_replacements, 0u);  // SFS never replaces
}

}  // namespace
}  // namespace skyline
