#include "core/cardinality.h"

#include <cmath>

#include "baselines/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

TEST(Cardinality, OneDimensionIsAlwaysOne) {
  EXPECT_DOUBLE_EQ(ExpectedSkylineSize(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedSkylineSize(1000, 1), 1.0);
}

TEST(Cardinality, ZeroRows) {
  EXPECT_DOUBLE_EQ(ExpectedSkylineSize(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(SkylineSizeAsymptotic(0, 3), 0.0);
}

TEST(Cardinality, TwoDimensionsIsHarmonicNumber) {
  // m(n,2) = H_n, the n-th harmonic number.
  double h = 0;
  for (int i = 1; i <= 100; ++i) h += 1.0 / i;
  EXPECT_NEAR(ExpectedSkylineSize(100, 2), h, 1e-9);
}

TEST(Cardinality, SingleTupleAnyDimension) {
  for (int d = 1; d <= 8; ++d) {
    EXPECT_DOUBLE_EQ(ExpectedSkylineSize(1, d), 1.0) << d;
  }
}

TEST(Cardinality, MonotoneInDimensions) {
  for (int d = 1; d < 8; ++d) {
    EXPECT_LT(ExpectedSkylineSize(10000, d), ExpectedSkylineSize(10000, d + 1));
  }
}

TEST(Cardinality, MonotoneInN) {
  for (uint64_t n : {10u, 100u, 1000u}) {
    EXPECT_LT(ExpectedSkylineSize(n, 3), ExpectedSkylineSize(n * 10, 3));
  }
}

TEST(Cardinality, AsymptoticFormula) {
  // (ln n)^{d-1} / (d-1)!
  const double ln1m = std::log(1e6);
  EXPECT_NEAR(SkylineSizeAsymptotic(1'000'000, 5),
              std::pow(ln1m, 4) / 24.0, 1e-6);
  EXPECT_NEAR(SkylineSizeAsymptotic(1'000'000, 7),
              std::pow(ln1m, 6) / 720.0, 1e-6);
}

TEST(Cardinality, PaperScaleEstimatesMatchReportedSizes) {
  // The paper reports 1,651 / 5,357 / 14,081 skyline tuples for 5/6/7
  // dimensions over 1M uniform tuples. The exact expectation should land in
  // the same ballpark (within ~25%: one random draw vs expectation).
  const double e5 = ExpectedSkylineSize(1'000'000, 5);
  const double e6 = ExpectedSkylineSize(1'000'000, 6);
  const double e7 = ExpectedSkylineSize(1'000'000, 7);
  EXPECT_NEAR(e5, 1651.0, 0.25 * 1651.0);
  EXPECT_NEAR(e6, 5357.0, 0.25 * 5357.0);
  EXPECT_NEAR(e7, 14081.0, 0.25 * 14081.0);
  // And the asymptotic tracks the exact value within a factor of ~2.
  EXPECT_LT(SkylineSizeAsymptotic(1'000'000, 5), e5);
  EXPECT_GT(SkylineSizeAsymptotic(1'000'000, 5), e5 / 2);
}

TEST(Cardinality, PredictsEmpiricalSkylineSizes) {
  // Generate uniform data and compare observed skyline sizes with the
  // estimator across dimensions (within 3x: single-sample variance).
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(
      Table t, testing_util::MakeUniformTable(env.get(), "t", 4000, 6, 51, 0));
  std::vector<char> rows = testing_util::ReadAll(t);
  for (int d = 2; d <= 6; ++d) {
    std::vector<Criterion> criteria;
    for (int i = 0; i < d; ++i) {
      criteria.push_back({"a" + std::to_string(i), Directive::kMax});
    }
    ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                         SkylineSpec::Make(t.schema(), std::move(criteria)));
    const double observed = static_cast<double>(
        NaiveSkylineIndices(spec, rows.data(), t.row_count()).size());
    const double expected = ExpectedSkylineSize(t.row_count(), d);
    EXPECT_GT(observed, expected / 3) << "d=" << d;
    EXPECT_LT(observed, expected * 3) << "d=" << d;
  }
}

TEST(Cardinality, AsymptoticConvergesRelatively) {
  // Ratio exact/asymptotic should approach 1 slowly from above as n grows.
  const double r1 = ExpectedSkylineSize(1000, 3) / SkylineSizeAsymptotic(1000, 3);
  const double r2 =
      ExpectedSkylineSize(100'000, 3) / SkylineSizeAsymptotic(100'000, 3);
  EXPECT_GT(r1, 1.0);
  EXPECT_GT(r2, 1.0);
  EXPECT_LT(r2, r1);
}


TEST(Cardinality, ExtrapolationFromSample) {
  // Exact expectations at two scales must be consistent with the growth-law
  // extrapolation between them (within ~20%: the law drops lower-order
  // terms).
  for (int d : {3, 5, 7}) {
    const double at_10k = ExpectedSkylineSize(10'000, d);
    const double at_1m = ExpectedSkylineSize(1'000'000, d);
    const double extrapolated = ExtrapolateSkylineSize(at_10k, 10'000,
                                                       1'000'000, d);
    EXPECT_NEAR(extrapolated, at_1m, 0.25 * at_1m) << "d=" << d;
  }
}

TEST(Cardinality, ExtrapolationEdgeCases) {
  // Shrinking or equal target returns the sample measurement unchanged.
  EXPECT_DOUBLE_EQ(ExtrapolateSkylineSize(50, 1000, 1000, 4), 50.0);
  EXPECT_DOUBLE_EQ(ExtrapolateSkylineSize(50, 1000, 100, 4), 50.0);
  // One dimension: skyline size is 1 regardless of n.
  EXPECT_DOUBLE_EQ(ExtrapolateSkylineSize(1, 100, 1'000'000, 1), 1.0);
}

TEST(Cardinality, ExtrapolationPredictsEmpiricalGrowth) {
  // Measure the skyline of a sample and of the full (small) table; the
  // extrapolation should land within a factor ~2 (single-draw variance on
  // both ends).
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(
      Table big, testing_util::MakeUniformTable(env.get(), "b", 8000, 4, 52, 0));
  ASSERT_OK_AND_ASSIGN(
      Table small, testing_util::MakeUniformTable(env.get(), "s", 800, 4, 53, 0));
  std::vector<Criterion> criteria;
  for (int i = 0; i < 4; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(big.schema(), criteria));
  std::vector<char> big_rows = testing_util::ReadAll(big);
  std::vector<char> small_rows = testing_util::ReadAll(small);
  const double m_small = static_cast<double>(
      NaiveSkylineIndices(spec, small_rows.data(), small.row_count()).size());
  const double m_big = static_cast<double>(
      NaiveSkylineIndices(spec, big_rows.data(), big.row_count()).size());
  const double predicted = ExtrapolateSkylineSize(m_small, 800, 8000, 4);
  EXPECT_GT(predicted, m_big / 2);
  EXPECT_LT(predicted, m_big * 2);
}

}  // namespace
}  // namespace skyline
