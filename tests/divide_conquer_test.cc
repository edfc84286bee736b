#include "baselines/divide_conquer.h"

#include "baselines/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;

class DivideConquerTest : public ::testing::Test {
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

TEST_F(DivideConquerTest, SmallExample) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{4, 1}, {2, 2}, {1, 4}, {0, 0}}));
  SkylineSpec spec = MaxSpec(t, 2);
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), 4),
            (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(DivideConquerTest, MatchesNaiveOnRandomData) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 2000,
                                  4, seed, 0));
    SkylineSpec spec = MaxSpec(t, 4);
    std::vector<char> rows = testing_util::ReadAll(t);
    EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), t.row_count()),
              NaiveSkylineIndices(spec, rows.data(), t.row_count()))
        << "seed " << seed;
  }
}

TEST_F(DivideConquerTest, MatchesNaiveWithDuplicatesAndTies) {
  // Small domain forces many ties on the split dimension.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 1500;
  gen.num_attributes = 3;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 4;
  gen.seed = 24;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 3);
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), t.row_count()),
            NaiveSkylineIndices(spec, rows.data(), t.row_count()));
}

TEST_F(DivideConquerTest, MinDirectives) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1000, 3, 25, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMin},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMin}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), t.row_count()),
            NaiveSkylineIndices(spec, rows.data(), t.row_count()));
}

TEST_F(DivideConquerTest, DiffGroups) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 800;
  gen.num_attributes = 3;
  gen.payload_bytes = 0;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 15;
  gen.seed = 26;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kDiff},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  std::vector<char> rows = testing_util::ReadAll(t);
  EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), t.row_count()),
            NaiveSkylineIndices(spec, rows.data(), t.row_count()));
}

TEST_F(DivideConquerTest, EmptyAndSingleton) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  SkylineSpec spec = MaxSpec(t, 2);
  EXPECT_TRUE(DivideConquerSkylineIndices(spec, nullptr, 0).empty());
  ASSERT_OK_AND_ASSIGN(Table t1, MakeIntTable(env_.get(), "t1", 2, {{1, 1}}));
  std::vector<char> rows = testing_util::ReadAll(t1);
  EXPECT_EQ(DivideConquerSkylineIndices(spec, rows.data(), 1),
            (std::vector<uint64_t>{0}));
}

TEST_F(DivideConquerTest, TableConvenienceWrapper) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 500, 3, 27, 0));
  SkylineSpec spec = MaxSpec(t, 3);
  ASSERT_OK_AND_ASSIGN(std::vector<char> sky, DivideConquerSkylineRows(t, spec));
  ASSERT_OK_AND_ASSIGN(std::vector<char> want, NaiveSkylineRows(t, spec));
  EXPECT_EQ(sky, want);
}

}  // namespace
}  // namespace skyline
