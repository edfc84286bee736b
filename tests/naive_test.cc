#include "baselines/naive.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;

class NaiveTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(NaiveTest, PaperProofExample) {
  // {(4,1), (2,2), (1,4)}: all three are skyline (Theorem 4's example).
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{4, 1}, {2, 2}, {1, 4}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(NaiveSkylineIndices(spec, rows.data(), 3),
            (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(NaiveTest, TotallyOrderedChainHasSingletonSkyline) {
  ASSERT_OK_AND_ASSIGN(
      Table t,
      MakeIntTable(env_.get(), "t", 2, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(NaiveSkylineIndices(spec, rows.data(), 4),
            (std::vector<uint64_t>{3}));
}

TEST_F(NaiveTest, EquivalentTuplesAllKept) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{5, 5}, {5, 5}, {1, 1}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(NaiveSkylineIndices(spec, rows.data(), 3),
            (std::vector<uint64_t>{0, 1}));
}

TEST_F(NaiveTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky, NaiveSkylineRows(t, spec));
  EXPECT_TRUE(sky.empty());
}

TEST_F(NaiveTest, SingleTupleIsSkyline) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{0, 0}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky, NaiveSkylineRows(t, spec));
  EXPECT_EQ(sky.size(), t.schema().row_width());
}

TEST_F(NaiveTest, DiffPartitionsGroups) {
  // Group 1: (1, 10) beats (1, 5). Group 2: (2, 3) alone.
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{1, 10}, {1, 5}, {2, 3}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kDiff}, {"a1", Directive::kMax}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(NaiveSkylineIndices(spec, rows.data(), 3),
            (std::vector<uint64_t>{0, 2}));
}

TEST_F(NaiveTest, MinDirectiveRespected) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{1, 9}, {2, 5}, {3, 1}}));
  // Maximize a0, minimize a1: (3,1) dominates nothing? (3,1) has best a0
  // AND best a1 -> dominates both others.
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMin}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(NaiveSkylineIndices(spec, rows.data(), 3),
            (std::vector<uint64_t>{2}));
}

TEST_F(NaiveTest, SchemaMismatchRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(Table other, MakeIntTable(env_.get(), "o", 3,
                                                 {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(other.schema(), {{"a2", Directive::kMax}}));
  EXPECT_TRUE(NaiveSkylineRows(t, spec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace skyline
