#include "sort/comparator.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/random.h"
#include "core/scoring.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

class ComparatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto result = Schema::Make(
        {ColumnDef::Int32("a"), ColumnDef::Int32("b"), ColumnDef::Float64("c")});
    ASSERT_TRUE(result.ok());
    schema_ = std::move(result).value();
  }

  std::vector<char> Row(int32_t a, int32_t b, double c) {
    std::vector<char> row(schema_.row_width());
    std::memcpy(row.data() + schema_.offset(0), &a, 4);
    std::memcpy(row.data() + schema_.offset(1), &b, 4);
    std::memcpy(row.data() + schema_.offset(2), &c, 8);
    return row;
  }

  Schema schema_;
};

TEST_F(ComparatorTest, SingleKeyAscending) {
  LexicographicOrdering ord(&schema_, {{0, false}});
  auto lo = Row(1, 0, 0), hi = Row(2, 0, 0);
  EXPECT_LT(ord.Compare(lo.data(), hi.data()), 0);
  EXPECT_GT(ord.Compare(hi.data(), lo.data()), 0);
  EXPECT_EQ(ord.Compare(lo.data(), lo.data()), 0);
}

TEST_F(ComparatorTest, SingleKeyDescending) {
  LexicographicOrdering ord(&schema_, {{0, true}});
  auto lo = Row(1, 0, 0), hi = Row(2, 0, 0);
  EXPECT_GT(ord.Compare(lo.data(), hi.data()), 0);
  EXPECT_LT(ord.Compare(hi.data(), lo.data()), 0);
}

TEST_F(ComparatorTest, NestedKeysBreakTies) {
  LexicographicOrdering ord(&schema_, {{0, true}, {1, true}});
  auto a = Row(5, 9, 0), b = Row(5, 3, 0);
  // Equal on key 0; key 1 descending puts the 9 first.
  EXPECT_LT(ord.Compare(a.data(), b.data()), 0);
}

TEST_F(ComparatorTest, MixedDirections) {
  LexicographicOrdering ord(&schema_, {{0, true}, {2, false}});
  auto a = Row(5, 0, 1.0), b = Row(5, 0, 2.0);
  EXPECT_LT(ord.Compare(a.data(), b.data()), 0);  // smaller c first
}

TEST_F(ComparatorTest, AllKeysEqualIsZero) {
  LexicographicOrdering ord(&schema_, {{0, true}, {1, false}, {2, true}});
  auto a = Row(1, 2, 3.0), b = Row(1, 2, 3.0);
  EXPECT_EQ(ord.Compare(a.data(), b.data()), 0);
}

TEST_F(ComparatorTest, NoScalarKeyByDefault) {
  LexicographicOrdering ord(&schema_, {{0, false}});
  EXPECT_FALSE(ord.has_key());
}

TEST_F(ComparatorTest, ReverseOrderingInverts) {
  LexicographicOrdering base(&schema_, {{0, false}});
  ReverseOrdering rev(&base);
  auto lo = Row(1, 0, 0), hi = Row(2, 0, 0);
  EXPECT_GT(rev.Compare(lo.data(), hi.data()), 0);
  EXPECT_LT(rev.Compare(hi.data(), lo.data()), 0);
  EXPECT_EQ(rev.Compare(lo.data(), lo.data()), 0);
}

TEST_F(ComparatorTest, TransitivityOnSamples) {
  LexicographicOrdering ord(&schema_, {{0, true}, {1, false}});
  auto a = Row(3, 1, 0), b = Row(2, 5, 0), c = Row(2, 7, 0);
  ASSERT_LT(ord.Compare(a.data(), b.data()), 0);
  ASSERT_LT(ord.Compare(b.data(), c.data()), 0);
  EXPECT_LT(ord.Compare(a.data(), c.data()), 0);
}

TEST_F(ComparatorTest, NoPrefixByDefault) {
  LexicographicOrdering base(&schema_, {{0, false}});
  ReverseOrdering rev(&base);
  auto a = Row(1, 0, 0), b = Row(2, 0, 0);
  EXPECT_EQ(rev.PrefixKey(a.data()), 0u);
  EXPECT_EQ(rev.PrefixKey(b.data()), 0u);
}

/// Random value of `type` drawn to collide often: a small domain, the
/// type's extremes, and for float64 -0.0, +0.0, infinities and NaNs of
/// both signs.
void FillRandomValue(ColumnType type, Random* rng, char* out) {
  switch (type) {
    case ColumnType::kInt32: {
      const int32_t picks[] = {INT32_MIN, -1, 0, 1, INT32_MAX};
      const int32_t v = rng->Uniform(2) == 0
                            ? picks[rng->Uniform(5)]
                            : static_cast<int32_t>(rng->Uniform(7)) - 3;
      std::memcpy(out, &v, sizeof(v));
      break;
    }
    case ColumnType::kInt64: {
      const int64_t picks[] = {INT64_MIN, -(int64_t{1} << 40), -1, 0,
                               int64_t{1} << 53, INT64_MAX};
      const int64_t v = rng->Uniform(2) == 0
                            ? picks[rng->Uniform(6)]
                            : static_cast<int64_t>(rng->Uniform(7)) - 3;
      std::memcpy(out, &v, sizeof(v));
      break;
    }
    case ColumnType::kFloat64: {
      const double picks[] = {-0.0,
                              0.0,
                              -1.5,
                              2.5,
                              1e300,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN()};
      const double v = picks[rng->Uniform(9)];
      std::memcpy(out, &v, sizeof(v));
      break;
    }
    case ColumnType::kFixedString: {
      const char* picks[] = {"", "a", "ab", "b", "zz"};
      std::memset(out, 0, 3);
      const char* v = picks[rng->Uniform(5)];
      std::memcpy(out, v, std::strlen(v));
      break;
    }
  }
}

TEST(PrefixKeyProperty, PrefixOrderImpliesCompareOrder) {
  // For every column type and direction as the leading sort column (and
  // int32 pairs, which pack both columns): a smaller prefix must mean
  // "sorts first", and rows that compare equal must share a prefix.
  auto schema_or = Schema::Make(
      {ColumnDef::Int32("i"), ColumnDef::Int32("j"), ColumnDef::Int64("l"),
       ColumnDef::Float64("f"), ColumnDef::FixedString("s", 3)});
  ASSERT_TRUE(schema_or.ok());
  const Schema schema = std::move(schema_or).value();
  std::vector<std::vector<SortKey>> orders;
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    for (bool desc : {false, true}) {
      orders.push_back({{col, desc}, {(col + 1) % schema.num_columns(), !desc}});
    }
  }
  orders.push_back({{0, true}, {1, false}, {3, true}});
  orders.push_back({{1, false}, {0, true}});

  auto spec_or = SkylineSpec::Make(
      schema, {{"i", Directive::kMax}, {"l", Directive::kMin},
               {"f", Directive::kMax}});
  ASSERT_TRUE(spec_or.ok());
  const SkylineSpec spec = std::move(spec_or).value();
  std::vector<ColumnStats> stats(schema.num_columns());
  stats[0].Observe(-3);
  stats[0].Observe(3);
  stats[2].Observe(-3);
  stats[2].Observe(3);
  stats[3].Observe(-1.5);
  stats[3].Observe(2.5);
  EntropyOrdering entropy(&spec, stats);

  Random rng(2024);
  const size_t width = schema.row_width();
  std::vector<char> a(width), b(width);
  auto random_row = [&](std::vector<char>* row) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      FillRandomValue(schema.column(c).type, &rng,
                      row->data() + schema.offset(c));
    }
  };
  // Returns how many pairs the prefix alone decided.
  auto check = [&](const RowOrdering& ord, const std::string& label) {
    int decided = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      random_row(&a);
      random_row(&b);
      if (trial % 4 == 0) b = a;  // exact duplicates
      const uint64_t pa = ord.PrefixKey(a.data());
      const uint64_t pb = ord.PrefixKey(b.data());
      const int c = ord.Compare(a.data(), b.data());
      if (pa < pb) {
        EXPECT_LT(c, 0) << label;
      } else if (pa > pb) {
        EXPECT_GT(c, 0) << label;
      }
      if (c == 0) {
        EXPECT_EQ(pa, pb) << label;
      }
      if (pa != pb) ++decided;
    }
    return decided;
  };
  for (size_t i = 0; i < orders.size(); ++i) {
    LexicographicOrdering ord(&schema, orders[i]);
    const int decided = check(ord, "nested #" + std::to_string(i));
    if (schema.column(orders[i][0].column).type == ColumnType::kFixedString) {
      EXPECT_EQ(decided, 0);  // a string-led order packs no prefix
    } else {
      EXPECT_GT(decided, 1000) << "nested #" << i;
    }
  }
  EXPECT_GT(check(entropy, "entropy"), 1000);
}

}  // namespace
}  // namespace skyline
