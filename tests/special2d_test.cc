#include "core/special2d.h"

#include "baselines/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class Special2DTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(Special2DTest, PaperProofExample) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{4, 1}, {2, 2}, {1, 4}, {0, 0}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", &stats));
  EXPECT_EQ(sky.row_count(), 3u);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.ExtraPages(), 0u);  // no window, no spills, ever
}

TEST_F(Special2DTest, MatchesOracleOnRandomData) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 3000,
                                  2, seed, 0));
    ASSERT_OK_AND_ASSIGN(
        SkylineSpec spec,
        SkylineSpec::Make(t.schema(),
                          {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
    ASSERT_OK_AND_ASSIGN(Table sky,
                         ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        OracleSkylineMultiset(t, spec))
        << "seed " << seed;
  }
}

TEST_F(Special2DTest, TiesAndDuplicates) {
  // Small domain: plenty of exact ties on both criteria.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 2000;
  gen.num_attributes = 2;
  gen.payload_bytes = 4;  // distinguish equivalent tuples
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 7;
  gen.seed = 104;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(Special2DTest, MinMaxMix) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 2, 105, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMin}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(Special2DTest, DiffGroupsSupported) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 1500;
  gen.num_attributes = 3;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 25;
  gen.seed = 106;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMin}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(Special2DTest, RejectsWrongDimensionality) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 3, {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec3,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkyline2D(t, spec3, SortOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec1,
                       SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkyline2D(t, spec1, SortOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(Special2DTest, DominatedChainKeepsOnlyHead) {
  ASSERT_OK_AND_ASSIGN(
      Table t,
      MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  ASSERT_EQ(sky.row_count(), 1u);
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowView(&t.schema(), rows.data()).GetInt32(0), 4);
}

TEST_F(Special2DTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 0u);
}

}  // namespace
}  // namespace skyline
