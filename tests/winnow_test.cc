#include "core/winnow.h"

#include "baselines/naive.h"
#include "core/dominance.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class WinnowTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(WinnowTest, SkylineAsSpecialCase) {
  // Winnow under attribute-wise dominance equals the skyline.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 3, 301));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  PreferenceRelation dominance = [&spec](const RowView& a, const RowView& b) {
    return Dominates(spec, a.data(), b.data());
  };
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table result, ComputeWinnow(t, dominance, WinnowOptions{}, "out", &stats));
  std::vector<char> rows = ReadAll(result);
  EXPECT_EQ(RowMultiset(rows.data(), result.row_count(),
                        t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(WinnowTest, NonMonotonePreference) {
  // A preference no monotone scoring expresses: prefer a0 "closer to 50"
  // with a1 as tie-breaker — interval preferences (the paper's ten-baths
  // house example from Section 2).
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2,
                            {{50, 1}, {49, 9}, {10, 9}, {90, 5}, {50, 7}}));
  auto closeness = [](int32_t v) { return std::abs(v - 50); };
  PreferenceRelation prefers = [&](const RowView& a, const RowView& b) {
    const int ca = closeness(a.GetInt32(0));
    const int cb = closeness(b.GetInt32(0));
    if (ca != cb) return ca < cb;
    return a.GetInt32(1) > b.GetInt32(1);
  };
  ASSERT_OK_AND_ASSIGN(
      Table result, ComputeWinnow(t, prefers, WinnowOptions{}, "out", nullptr));
  // Total order here: the unique best tuple is (50, 7).
  ASSERT_EQ(result.row_count(), 1u);
  std::vector<char> rows = ReadAll(result);
  RowView best(&t.schema(), rows.data());
  EXPECT_EQ(best.GetInt32(0), 50);
  EXPECT_EQ(best.GetInt32(1), 7);
}

TEST_F(WinnowTest, MultiPassWithTinyWindow) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2500, 5, 302));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax},
                                     {"a3", Directive::kMax},
                                     {"a4", Directive::kMax}}));
  PreferenceRelation dominance = [&spec](const RowView& a, const RowView& b) {
    return Dominates(spec, a.data(), b.data());
  };
  WinnowOptions opts;
  opts.window_pages = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table result,
                       ComputeWinnow(t, dominance, opts, "out", &stats));
  std::vector<char> rows = ReadAll(result);
  EXPECT_EQ(RowMultiset(rows.data(), result.row_count(),
                        t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  EXPECT_GT(stats.passes, 1u);
}

TEST_F(WinnowTest, RejectsNonIrreflexivePreference) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}}));
  PreferenceRelation at_least = [](const RowView& a, const RowView& b) {
    return a.GetInt32(0) >= b.GetInt32(0);  // not strict!
  };
  auto result = ComputeWinnow(t, at_least, WinnowOptions{}, "out", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(WinnowTest, RejectsNonAntisymmetricPreference) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeIntTable(env_.get(), "t", 2, {{1, 2}, {2, 1}}));
  // "Prefer if better on ANY attribute" — cyclic (each beats the other).
  PreferenceRelation any_better = [](const RowView& a, const RowView& b) {
    return a.GetInt32(0) > b.GetInt32(0) || a.GetInt32(1) > b.GetInt32(1);
  };
  auto result = ComputeWinnow(t, any_better, WinnowOptions{}, "out", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(WinnowTest, RejectsNullPreference) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 1}}));
  EXPECT_TRUE(ComputeWinnow(t, PreferenceRelation(), WinnowOptions{}, "out",
                            nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(WinnowTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  PreferenceRelation never = [](const RowView&, const RowView&) {
    return false;
  };
  ASSERT_OK_AND_ASSIGN(Table result,
                       ComputeWinnow(t, never, WinnowOptions{}, "out", nullptr));
  EXPECT_EQ(result.row_count(), 0u);
}

TEST_F(WinnowTest, EmptyPreferenceKeepsEverything) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}}));
  PreferenceRelation never = [](const RowView&, const RowView&) {
    return false;
  };
  ASSERT_OK_AND_ASSIGN(Table result,
                       ComputeWinnow(t, never, WinnowOptions{}, "out", nullptr));
  EXPECT_EQ(result.row_count(), 2u);
}

}  // namespace
}  // namespace skyline
