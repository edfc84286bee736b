#include "core/strata.h"

#include "baselines/naive.h"
#include "core/dominance.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class StrataTest : public ::testing::Test {
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

/// Oracle: iterated naive skyline (compute skyline, remove, repeat).
std::vector<std::multiset<std::string>> OracleStrata(const Table& t,
                                                     const SkylineSpec& spec,
                                                     size_t num_strata) {
  std::vector<char> rows = ReadAll(t);
  const size_t w = spec.schema().row_width();
  uint64_t count = t.row_count();
  std::vector<std::multiset<std::string>> strata;
  while (count > 0 && strata.size() < num_strata) {
    std::vector<uint64_t> sky = NaiveSkylineIndices(spec, rows.data(), count);
    std::multiset<std::string> layer;
    std::set<uint64_t> sky_set(sky.begin(), sky.end());
    std::vector<char> rest;
    for (uint64_t i = 0; i < count; ++i) {
      if (sky_set.count(i)) {
        layer.emplace(rows.data() + i * w, w);
      } else {
        rest.insert(rest.end(), rows.data() + i * w,
                    rows.data() + (i + 1) * w);
      }
    }
    strata.push_back(std::move(layer));
    rows = std::move(rest);
    count -= sky.size();
  }
  return strata;
}

TEST_F(StrataTest, ChainProducesOneStratumPerTuple) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}, {3, 3}}));
  SkylineSpec spec = MaxSpec(t, 2);
  StrataOptions opts;
  opts.num_strata = 3;
  StrataStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "out", &stats));
  ASSERT_EQ(strata.size(), 3u);
  EXPECT_EQ(strata[0].row_count(), 1u);
  EXPECT_EQ(strata[1].row_count(), 1u);
  EXPECT_EQ(strata[2].row_count(), 1u);
  std::vector<char> s0 = ReadAll(strata[0]);
  EXPECT_EQ(RowView(&t.schema(), s0.data()).GetInt32(0), 3);
  EXPECT_EQ(stats.stratum_sizes, (std::vector<uint64_t>{1, 1, 1}));
}

TEST_F(StrataTest, MatchesOracleOnRandomData) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1200, 3, 31));
  SkylineSpec spec = MaxSpec(t, 3);
  StrataOptions opts;
  opts.num_strata = 4;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr));
  auto oracle = OracleStrata(t, spec, 4);
  ASSERT_EQ(strata.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<char> rows = ReadAll(strata[i]);
    EXPECT_EQ(RowMultiset(rows.data(), strata[i].row_count(),
                          t.schema().row_width()),
              oracle[i])
        << "stratum " << i;
  }
}

TEST_F(StrataTest, NestedPresortAgrees) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 800, 3, 32));
  SkylineSpec spec = MaxSpec(t, 3);
  StrataOptions opts;
  opts.num_strata = 3;
  opts.presort = Presort::kNested;
  opts.use_projection = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr));
  auto oracle = OracleStrata(t, spec, 3);
  for (size_t i = 0; i < 3; ++i) {
    std::vector<char> rows = ReadAll(strata[i]);
    EXPECT_EQ(RowMultiset(rows.data(), strata[i].row_count(),
                          t.schema().row_width()),
              oracle[i]);
  }
}

TEST_F(StrataTest, StrataAreDisjointAndOrdered) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 600, 4, 33));
  SkylineSpec spec = MaxSpec(t, 4);
  StrataOptions opts;
  opts.num_strata = 3;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr));
  // Every stratum-1 tuple must be dominated by some stratum-0 tuple and no
  // stratum-0 tuple is dominated by anything in the input.
  std::vector<char> s0 = ReadAll(strata[0]);
  std::vector<char> s1 = ReadAll(strata[1]);
  const size_t w = t.schema().row_width();
  for (uint64_t i = 0; i < strata[1].row_count(); ++i) {
    bool dominated = false;
    for (uint64_t j = 0; j < strata[0].row_count() && !dominated; ++j) {
      dominated = Dominates(spec, s0.data() + j * w, s1.data() + i * w);
    }
    EXPECT_TRUE(dominated) << "stratum-1 tuple " << i
                           << " not dominated by stratum 0";
  }
}

TEST_F(StrataTest, WindowOverflowReportsResourceExhausted) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 3000, 7, 34));
  SkylineSpec spec = MaxSpec(t, 7);
  StrataOptions opts;
  opts.num_strata = 2;
  opts.window_pages = 1;
  opts.use_projection = false;  // 40 entries per window: will overflow
  auto result = ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST_F(StrataTest, CustomPresortIsRejected) {
  // Strata presort through SfsPresort, and StrataOptions has no preference
  // ordering to sort by.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 100, 3, 35));
  StrataOptions opts;
  opts.presort = Presort::kCustom;
  auto result =
      ComputeStrataSfs(t, MaxSpec(t, 3), opts, ExecContext(), "out", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST_F(StrataTest, IterativeLabellerMatchesMultiWindow) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1000, 3, 35));
  SkylineSpec spec = MaxSpec(t, 3);
  StrataOptions mw_opts;
  mw_opts.num_strata = 3;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> mw,
                       ComputeStrataSfs(t, spec, mw_opts, ExecContext(), "mw", nullptr));
  StrataStats it_stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Table> it,
      LabelStrataIterative(t, spec, SfsOptions{}, ExecContext(), 3, "it", &it_stats));
  ASSERT_EQ(it.size(), 3u);
  const size_t w = t.schema().row_width();
  for (size_t i = 0; i < 3; ++i) {
    std::vector<char> a = ReadAll(mw[i]);
    std::vector<char> b = ReadAll(it[i]);
    EXPECT_EQ(RowMultiset(a.data(), mw[i].row_count(), w),
              RowMultiset(b.data(), it[i].row_count(), w))
        << "stratum " << i;
  }
  EXPECT_EQ(it_stats.stratum_sizes.size(), 3u);
}

TEST_F(StrataTest, IterativeLabellerExhaustsInput) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}, {3, 3}}));
  SkylineSpec spec = MaxSpec(t, 2);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Table> strata,
      LabelStrataIterative(t, spec, SfsOptions{}, ExecContext(), 0, "out", nullptr));
  ASSERT_EQ(strata.size(), 3u);
  uint64_t total = 0;
  for (const auto& s : strata) total += s.row_count();
  EXPECT_EQ(total, 3u);
}

TEST_F(StrataTest, IterativeLabellerHandlesTinyWindows) {
  // Unlike the multi-window variant, the iterative labeller tolerates
  // windows smaller than a stratum (it just takes extra passes).
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 5, 36));
  SkylineSpec spec = MaxSpec(t, 5);
  SfsOptions sfs;
  sfs.window_pages = 1;
  sfs.use_projection = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       LabelStrataIterative(t, spec, sfs, ExecContext(), 2,
                                            "out", nullptr));
  auto oracle = OracleStrata(t, spec, 2);
  const size_t w = t.schema().row_width();
  for (size_t i = 0; i < 2; ++i) {
    std::vector<char> rows = ReadAll(strata[i]);
    EXPECT_EQ(RowMultiset(rows.data(), strata[i].row_count(), w), oracle[i]);
  }
}

TEST_F(StrataTest, ZeroStrataRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}}));
  SkylineSpec spec = MaxSpec(t, 2);
  StrataOptions opts;
  opts.num_strata = 0;
  EXPECT_TRUE(ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(StrataTest, StratumZeroEqualsSkyline) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 900, 4, 37));
  SkylineSpec spec = MaxSpec(t, 4);
  StrataOptions opts;
  opts.num_strata = 1;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(strata[0]);
  EXPECT_EQ(RowMultiset(rows.data(), strata[0].row_count(),
                        t.schema().row_width()),
            testing_util::OracleSkylineMultiset(t, spec));
}

}  // namespace
}  // namespace skyline
