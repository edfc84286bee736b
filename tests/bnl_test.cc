#include "core/bnl.h"

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

class BnlTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

SkylineSpec MaxSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok());
  return std::move(result).value();
}

TEST_F(BnlTest, MatchesOracleOnRandomData) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 11));
  SkylineSpec spec = MaxSpec(t, 4);
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.output_rows, sky.row_count());
}

TEST_F(BnlTest, MultiPassTinyWindowMatchesOracle) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 3000, 7, 12));
  SkylineSpec spec = MaxSpec(t, 7);
  BnlOptions opts;
  opts.window_pages = 1;  // 40 full tuples
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineBnl(t, spec, opts, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_GT(stats.passes, 1u);
  EXPECT_GT(stats.spilled_tuples, 0u);
  EXPECT_GT(stats.ExtraPages(), 0u);
}

TEST_F(BnlTest, WindowReplacementHappens) {
  // Ascending chain: each tuple dominates everything before it, so the
  // window keeps replacing and only the last tuple survives.
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({i, i});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, rows));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", &stats));
  EXPECT_EQ(sky.row_count(), 1u);
  EXPECT_EQ(stats.window_replacements, 99u);
  std::vector<char> out = ReadAll(sky);
  RowView view(&t.schema(), out.data());
  EXPECT_EQ(view.GetInt32(0), 99);
}

TEST_F(BnlTest, EquivalentTuplesAllOutput) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{5, 5}, {5, 5}, {1, 1}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 2u);
}

TEST_F(BnlTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 0u);
}

TEST_F(BnlTest, ReverseEntropyInputMatchesOracle) {
  // The paper's pathological BNL w/RE case must still be correct.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 5, 13));
  SkylineSpec spec = MaxSpec(t, 5);
  EntropyOrdering entropy(&spec, t);
  ReverseOrdering reverse_entropy(&entropy);
  BnlOptions opts;
  opts.window_pages = 2;
  opts.input_ordering = &reverse_entropy;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineBnl(t, spec, opts, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_GT(stats.sort_stats.runs_generated, 0u);
}

TEST_F(BnlTest, ReverseEntropyCostsMoreThanRandom) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 4000, 5, 14));
  SkylineSpec spec = MaxSpec(t, 5);
  BnlOptions opts;
  opts.window_pages = 1;
  SkylineRunStats random_stats;
  ASSERT_OK(ComputeSkylineBnl(t, spec, opts, ExecContext(), "o1", &random_stats).status());

  EntropyOrdering entropy(&spec, t);
  ReverseOrdering reverse_entropy(&entropy);
  opts.input_ordering = &reverse_entropy;
  SkylineRunStats re_stats;
  ASSERT_OK(ComputeSkylineBnl(t, spec, opts, ExecContext(), "o2", &re_stats).status());

  // Reverse-entropy arrival destroys the replacement benefit: strictly more
  // spilled tuples and more passes (the paper's Figure 11/12 effect).
  EXPECT_GT(re_stats.spilled_tuples, random_stats.spilled_tuples);
  EXPECT_GE(re_stats.passes, random_stats.passes);
  EXPECT_GT(re_stats.ExtraPages(), random_stats.ExtraPages());
}

TEST_F(BnlTest, DiffDirectiveMatchesOracle) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 1000;
  gen.num_attributes = 4;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 20;
  gen.seed = 15;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMin}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(BnlTest, AgreesWithSfsAcrossWindowSizes) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2500, 6, 16));
  SkylineSpec spec = MaxSpec(t, 6);
  SfsOptions sfs_opts;
  ASSERT_OK_AND_ASSIGN(Table sfs_sky,
                       ComputeSkylineSfs(t, spec, sfs_opts, ExecContext(), "sfs", nullptr));
  std::vector<char> sfs_rows = ReadAll(sfs_sky);
  const auto want = RowMultiset(sfs_rows.data(), sfs_sky.row_count(),
                                t.schema().row_width());
  for (size_t pages : {1u, 3u, 10u, 100u}) {
    BnlOptions opts;
    opts.window_pages = pages;
    ASSERT_OK_AND_ASSIGN(
        Table sky, ComputeSkylineBnl(t, spec, opts,
                                     ExecContext(),
                                     "out" + std::to_string(pages), nullptr));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        want)
        << "window_pages=" << pages;
  }
}

TEST_F(BnlTest, SchemaMismatchRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(Table o, MakeIntTable(env_.get(), "o", 3, {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(o.schema(), {{"a2", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkylineBnl(t, spec, BnlOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skyline
