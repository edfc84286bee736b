#include "baselines/less.h"

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

class LessTest : public ::testing::Test {
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

TEST_F(LessTest, MatchesOracle) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 90));
  SkylineSpec spec = MaxSpec(t, 4);
  LessStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineLess(t, spec, LessOptions{}, ExecContext(), "out", &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_GT(stats.ef_dropped, 0u);
  EXPECT_EQ(stats.run.output_rows, sky.row_count());
}

TEST_F(LessTest, AgreesWithSfsAcrossSeeds) {
  for (uint64_t seed : {91u, 92u, 93u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 3000,
                                  6, seed));
    SkylineSpec spec = MaxSpec(t, 6);
    ASSERT_OK_AND_ASSIGN(Table less_sky,
                         ComputeSkylineLess(t, spec, LessOptions{}, ExecContext(), "l", nullptr));
    ASSERT_OK_AND_ASSIGN(Table sfs_sky,
                         ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "s", nullptr));
    const size_t w = t.schema().row_width();
    std::vector<char> a = ReadAll(less_sky);
    std::vector<char> b = ReadAll(sfs_sky);
    EXPECT_EQ(RowMultiset(a.data(), less_sky.row_count(), w),
              RowMultiset(b.data(), sfs_sky.row_count(), w))
        << "seed " << seed;
  }
}

TEST_F(LessTest, EliminationShrinksSortInput) {
  // The whole point: most dominated tuples never reach the sort runs, so
  // sort I/O drops substantially vs plain SFS (low dimensionality keeps
  // the skyline small, maximizing elimination).
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 20000, 3, 94));
  SkylineSpec spec = MaxSpec(t, 3);

  LessOptions less_opts;
  less_opts.sort_options.buffer_pages = 8;  // force external behaviour
  LessStats less_stats;
  ASSERT_OK(ComputeSkylineLess(t, spec, less_opts, ExecContext(), "l", &less_stats).status());

  SfsOptions sfs_opts;
  sfs_opts.sort_options.buffer_pages = 8;
  SkylineRunStats sfs_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, sfs_opts, ExecContext(), "s", &sfs_stats).status());

  EXPECT_GT(less_stats.ef_dropped, t.row_count() / 2);
  EXPECT_LT(less_stats.run.sort_stats.io.TotalPages(),
            sfs_stats.sort_stats.io.TotalPages() / 2);
}

TEST_F(LessTest, TinyEfWindowStillCorrect) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 5, 95));
  SkylineSpec spec = MaxSpec(t, 5);
  LessOptions opts;
  opts.ef_window_pages = 1;
  opts.window_pages = 1;
  opts.use_projection = false;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineLess(t, spec, opts, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(LessTest, FilterNeverDropsSkylineTuples) {
  // Run the elimination filter alone over the input and verify every
  // oracle skyline tuple survives.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1000, 4, 96, 0));
  SkylineSpec spec = MaxSpec(t, 4);
  EntropyScorer scorer(&spec, t);
  EliminationFilter ef(&spec, &scorer, 1);
  std::vector<char> rows = ReadAll(t);
  const size_t w = t.schema().row_width();
  std::vector<uint64_t> survivors;
  for (uint64_t i = 0; i < t.row_count(); ++i) {
    if (ef.Keep(rows.data() + i * w)) survivors.push_back(i);
  }
  std::set<uint64_t> survivor_set(survivors.begin(), survivors.end());
  for (uint64_t idx : NaiveSkylineIndices(spec, rows.data(), t.row_count())) {
    EXPECT_TRUE(survivor_set.count(idx)) << "skyline tuple " << idx
                                         << " wrongly eliminated";
  }
  EXPECT_EQ(ef.dropped() + survivors.size(), t.row_count());
}

TEST_F(LessTest, EquivalentTuplesAllSurvive) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{5, 5}, {5, 5}, {1, 1}}));
  SkylineSpec spec = MaxSpec(t, 2);
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineLess(t, spec, LessOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 2u);
}

TEST_F(LessTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  SkylineSpec spec = MaxSpec(t, 2);
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineLess(t, spec, LessOptions{}, ExecContext(), "out", nullptr));
  EXPECT_EQ(sky.row_count(), 0u);
}

TEST_F(LessTest, SchemaMismatchRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(Table o, MakeIntTable(env_.get(), "o", 3, {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(o.schema(), {{"a2", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkylineLess(t, spec, LessOptions{}, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skyline
