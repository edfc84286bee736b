#include "core/dim_reduce.h"

#include "baselines/naive.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class DimReduceTest : public ::testing::Test {
 protected:
  Result<Table> SmallDomainTable(uint64_t n, int dims, uint64_t seed) {
    GeneratorOptions gen;
    gen.num_rows = n;
    gen.num_attributes = dims;
    gen.payload_bytes = 0;
    gen.small_domain = true;
    gen.domain_lo = 0;
    gen.domain_hi = 9;
    gen.seed = seed;
    return GenerateTable(env_.get(), "t", gen);
  }

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

TEST_F(DimReduceTest, PreservesSkyline) {
  ASSERT_OK_AND_ASSIGN(Table t, SmallDomainTable(5000, 4, 41));
  SkylineSpec spec = MaxSpec(t, 4);
  DimReduceStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", &stats));
  // The reduced table's skyline equals the original's (projected onto the
  // skyline attributes; surviving representative tuples may differ only in
  // non-criterion columns, of which this table has none).
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_orig, NaiveSkylineRows(t, spec));
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_red, NaiveSkylineRows(reduced, spec));
  const size_t w = t.schema().row_width();
  EXPECT_EQ(RowMultiset(sky_red.data(), sky_red.size() / w, w),
            RowMultiset(sky_orig.data(), sky_orig.size() / w, w));
}

TEST_F(DimReduceTest, ReducesSmallDomainsSubstantially) {
  // The paper's experiment: domains 0..9, 4 dims, 1M -> ~10%. At 20k rows
  // there are at most 1000 groups over the first 3 attributes, so the
  // reduction is even stronger (bounded by groups x ties).
  ASSERT_OK_AND_ASSIGN(Table t, SmallDomainTable(20000, 4, 42));
  SkylineSpec spec = MaxSpec(t, 4);
  DimReduceStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", &stats));
  EXPECT_EQ(stats.input_rows, 20000u);
  EXPECT_EQ(stats.output_rows, reduced.row_count());
  EXPECT_LT(stats.ReductionRatio(), 0.35);
  EXPECT_GT(reduced.row_count(), 0u);
}

TEST_F(DimReduceTest, OutputFeedsSfsWithoutResort) {
  // The reduced table is in nested monotone order, so Presort::kNone works.
  ASSERT_OK_AND_ASSIGN(Table t, SmallDomainTable(8000, 4, 43));
  SkylineSpec spec = MaxSpec(t, 4);
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", nullptr));
  SfsOptions opts;
  opts.presort = Presort::kNone;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(reduced, spec, opts, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(DimReduceTest, TiesOnLastAttributeAllKept) {
  // Two tuples in the same group with equal (maximal) last value: both stay.
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 3,
                            {{1, 1, 5}, {1, 1, 5}, {1, 1, 3}, {2, 2, 0}}));
  SkylineSpec spec = MaxSpec(t, 3);
  DimReduceStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", &stats));
  EXPECT_EQ(reduced.row_count(), 3u);  // two (1,1,5)s and (2,2,0)
}

TEST_F(DimReduceTest, MinDirectiveOnLastAttribute) {
  ASSERT_OK_AND_ASSIGN(
      Table t,
      MakeIntTable(env_.get(), "t", 2, {{1, 9}, {1, 2}, {1, 5}, {2, 7}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMin}}));
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", nullptr));
  // Group a0=1 keeps only a1=2; group a0=2 keeps a1=7.
  EXPECT_EQ(reduced.row_count(), 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_orig, NaiveSkylineRows(t, spec));
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_red, NaiveSkylineRows(reduced, spec));
  const size_t w = t.schema().row_width();
  EXPECT_EQ(RowMultiset(sky_red.data(), sky_red.size() / w, w),
            RowMultiset(sky_orig.data(), sky_orig.size() / w, w));
}

TEST_F(DimReduceTest, DiffColumnsPartOfGrouping) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 3,
                            {{1, 5, 9}, {1, 5, 3}, {2, 5, 1}, {2, 5, 8}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", nullptr));
  // One survivor per (diff group, a1) combination.
  EXPECT_EQ(reduced.row_count(), 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_orig, NaiveSkylineRows(t, spec));
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky_red, NaiveSkylineRows(reduced, spec));
  const size_t w = t.schema().row_width();
  EXPECT_EQ(RowMultiset(sky_red.data(), sky_red.size() / w, w),
            RowMultiset(sky_orig.data(), sky_orig.size() / w, w));
}

TEST_F(DimReduceTest, RequiresTwoValueCriteria) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax}}));
  EXPECT_TRUE(DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DimReduceTest, LargeDomainsReduceLittle) {
  // With full-range int32 attributes nearly every tuple is its own group:
  // reduction is ineffective, exactly as the paper cautions.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "u", 3000, 3, 44, 0));
  SkylineSpec spec = MaxSpec(t, 3);
  DimReduceStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table reduced, DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", &stats));
  EXPECT_GT(stats.ReductionRatio(), 0.99);
  (void)reduced;
}

}  // namespace
}  // namespace skyline
