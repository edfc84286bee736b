#include "core/special3d.h"

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

class Special3DTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(Special3DTest, HandCheckedExample) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 3,
                            {{3, 1, 1},    // skyline (best a0)
                             {2, 3, 1},    // skyline (incomparable)
                             {2, 1, 3},    // skyline
                             {2, 1, 1},    // dominated by both 2xx rows
                             {1, 2, 2},    // skyline (balanced)
                             {1, 3, 1},    // dominated by (2,3,1)
                             {0, 0, 0}})); // dominated by everything
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_EQ(sky.row_count(), 4u);
  EXPECT_EQ(stats.ExtraPages(), 0u);
}

TEST_F(Special3DTest, MatchesOracleOnRandomData) {
  for (uint64_t seed : {111u, 112u, 113u, 114u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 3000,
                                  3, seed, 0));
    ASSERT_OK_AND_ASSIGN(
        SkylineSpec spec,
        SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                       {"a1", Directive::kMax},
                                       {"a2", Directive::kMax}}));
    ASSERT_OK_AND_ASSIGN(Table sky,
                         ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        OracleSkylineMultiset(t, spec))
        << "seed " << seed;
  }
}

TEST_F(Special3DTest, SmallDomainManyTies) {
  // Heavy primary-value groups and exact (a1,a2) duplicates stress the
  // group scan and the staircase covered/replace logic.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 4000;
  gen.num_attributes = 3;
  gen.payload_bytes = 4;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 5;
  gen.seed = 115;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(Special3DTest, MixedDirections) {
  for (uint64_t seed : {116u, 117u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 2000,
                                  3, seed, 0));
    ASSERT_OK_AND_ASSIGN(
        SkylineSpec spec,
        SkylineSpec::Make(t.schema(), {{"a0", Directive::kMin},
                                       {"a1", Directive::kMax},
                                       {"a2", Directive::kMin}}));
    ASSERT_OK_AND_ASSIGN(Table sky,
                         ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        OracleSkylineMultiset(t, spec));
  }
}

TEST_F(Special3DTest, DiffGroups) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 2000;
  gen.num_attributes = 4;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 12;
  gen.seed = 118;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax},
                                     {"a3", Directive::kMin}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(Special3DTest, EquivalentTuplesAllKept) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 3,
                            {{5, 5, 5}, {5, 5, 5}, {5, 5, 5}, {1, 1, 1}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 3u);
}

TEST_F(Special3DTest, RejectsWrongDimensionality) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(Special3DTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 3, {}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 0u);
}

TEST_F(Special3DTest, DominanceWorkIsLinearInInput) {
  // The point of the special case: each tuple costs at most one staircase
  // lookup plus one within-group frontier check — O(n) dominance tests
  // total (each O(log s)), versus the general window's O(n·s) worst case.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 20000, 3, 119, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  SkylineRunStats sky3d_stats;
  ASSERT_OK(ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "o1", &sky3d_stats).status());
  SkylineRunStats sfs_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "o2", &sfs_stats).status());
  EXPECT_EQ(sky3d_stats.output_rows, sfs_stats.output_rows);
  EXPECT_LE(sky3d_stats.window_comparisons, 2 * t.row_count());
}

}  // namespace
}  // namespace skyline
