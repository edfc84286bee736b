#include "core/cost_model.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "core/dominance.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::ReadAll;

SkylineSpec MaxSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok());
  return std::move(result).value();
}

TEST(CostModel, PassFormulaBasics) {
  EXPECT_EQ(SfsPassesForSkyline(0, 100), 1u);
  EXPECT_EQ(SfsPassesForSkyline(1, 100), 1u);
  EXPECT_EQ(SfsPassesForSkyline(100, 100), 1u);
  EXPECT_EQ(SfsPassesForSkyline(101, 100), 2u);
  EXPECT_EQ(SfsPassesForSkyline(1000, 100), 10u);
  EXPECT_EQ(SfsPassesForSkyline(1001, 100), 11u);
}

TEST(CostModel, PassFormulaIsExactAgainstMeasuredRuns) {
  // Fact 1 of the cost model: with a monotone presort and no DIFF groups,
  // SFS passes == ceil(skyline / window capacity) — exactly.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 4000, 6, 401));
  SkylineSpec spec = MaxSpec(t, 6);
  for (size_t pages : {1u, 2u, 4u, 16u, 64u}) {
    for (bool projection : {false, true}) {
      SfsOptions opts;
      opts.window_pages = pages;
      opts.use_projection = projection;
      SkylineRunStats stats;
      auto sky = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats);
      ASSERT_TRUE(sky.ok());
      const size_t entry_width = projection
                                     ? spec.projected_schema().row_width()
                                     : spec.schema().row_width();
      const uint64_t capacity = pages * RecordsPerPage(entry_width);
      // With projection the window holds *distinct* projected tuples; on
      // full-range random data duplicates are absent, so output count
      // works for both modes.
      EXPECT_EQ(stats.passes, SfsPassesForSkyline(stats.output_rows, capacity))
          << "pages=" << pages << " proj=" << projection;
    }
  }
}

TEST(CostModel, EstimatePredictsMeasuredPassesWithinOne) {
  // Fact 2: plugging the cardinality estimate into the pass formula lands
  // within one pass of the measurement on uniform data.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 8000, 5, 402));
  SkylineSpec spec = MaxSpec(t, 5);
  for (size_t pages : {1u, 2u, 8u}) {
    SfsOptions opts;
    opts.window_pages = pages;
    opts.use_projection = false;
    SfsCostEstimate estimate = EstimateSfsCost(t.row_count(), spec, opts);
    SkylineRunStats stats;
    auto sky = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats);
    ASSERT_TRUE(sky.ok());
    const int64_t diff = static_cast<int64_t>(estimate.passes) -
                         static_cast<int64_t>(stats.passes);
    EXPECT_LE(std::abs(diff), 1) << "pages=" << pages << " est "
                                 << estimate.passes << " vs " << stats.passes;
  }
}

TEST(CostModel, CapacityReflectsProjection) {
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 100, 5, 403,
                                                 /*payload_bytes=*/60));
  SkylineSpec spec = MaxSpec(t, 5);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  SfsCostEstimate full = EstimateSfsCost(t.row_count(), spec, opts);
  opts.use_projection = true;
  SfsCostEstimate proj = EstimateSfsCost(t.row_count(), spec, opts);
  // 80-byte rows vs 20-byte projections: 4x the capacity.
  EXPECT_EQ(full.window_capacity, 51u);   // 4096 / 80
  EXPECT_EQ(proj.window_capacity, 204u);  // 4096 / 20
}

TEST(CostModel, SpillBoundCoversMeasurement) {
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 6000, 6, 404));
  SkylineSpec spec = MaxSpec(t, 6);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  SfsCostEstimate estimate = EstimateSfsCost(t.row_count(), spec, opts);
  SkylineRunStats stats;
  auto sky = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats);
  ASSERT_TRUE(sky.ok());
  EXPECT_GE(estimate.spilled_tuples_bound,
            static_cast<double>(stats.spilled_tuples));
  EXPECT_GE(estimate.extra_pages_bound,
            static_cast<double>(stats.ExtraPages()));
}

TEST(CostModel, InputPagesMatchTable) {
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 1000, 5, 405,
                                                 /*payload_bytes=*/80));
  SkylineSpec spec = MaxSpec(t, 5);
  SfsCostEstimate estimate =
      EstimateSfsCost(t.row_count(), spec, SfsOptions{});
  EXPECT_EQ(estimate.input_pages, t.page_count());
}

/// All-pairs skyline count: each row against every other. The oracle for
/// the window-pass SampleSkylineCount.
uint64_t AllPairsSkylineCount(const SkylineSpec& spec, const char* rows,
                              uint64_t count) {
  const size_t width = spec.schema().row_width();
  uint64_t skyline = 0;
  for (uint64_t i = 0; i < count; ++i) {
    bool dominated = false;
    for (uint64_t j = 0; j < count && !dominated; ++j) {
      if (j == i) continue;
      dominated = Dominates(spec, rows + j * width, rows + i * width);
    }
    if (!dominated) ++skyline;
  }
  return skyline;
}

TEST(CostModel, SampleSkylineCountMatchesAllPairsOracle) {
  struct Case {
    Distribution distribution;
    int dims;
    bool small_domain;
    bool mixed_types;
  };
  const Case cases[] = {
      {Distribution::kIndependent, 4, false, false},
      {Distribution::kCorrelated, 5, false, false},
      {Distribution::kAntiCorrelated, 4, false, false},
      {Distribution::kAntiCorrelated, 5, false, true},
      {Distribution::kIndependent, 3, true, false},
      {Distribution::kAntiCorrelated, 4, true, true},
  };
  auto env = NewMemEnv();
  int table_id = 0;
  for (const Case& c : cases) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      GeneratorOptions gen;
      gen.num_rows = 1500;
      gen.num_attributes = c.dims;
      gen.distribution = c.distribution;
      gen.small_domain = c.small_domain;
      gen.payload_bytes = 8;
      gen.seed = seed;
      if (c.mixed_types) {
        for (int i = 0; i < c.dims; ++i) {
          gen.attribute_types.push_back(i % 3 == 0   ? ColumnType::kInt32
                                        : i % 3 == 1 ? ColumnType::kInt64
                                                     : ColumnType::kFloat64);
        }
      }
      ASSERT_OK_AND_ASSIGN(
          Table t, GenerateTable(env.get(), "s" + std::to_string(table_id++),
                                 gen));
      std::vector<Criterion> criteria;
      for (int i = 0; i < c.dims; ++i) {
        criteria.push_back({"a" + std::to_string(i),
                            i % 2 == 0 ? Directive::kMax : Directive::kMin});
      }
      ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                           SkylineSpec::Make(t.schema(), criteria));
      const size_t width = t.schema().row_width();
      std::vector<char> rows = ReadAll(t);
      // Exact duplicates: copies of random rows and of the first rows, so
      // some skyline members appear more than once.
      Random rng(seed);
      const uint64_t base = t.row_count();
      for (uint64_t k = 0; k < 300; ++k) {
        const uint64_t src = k < 20 ? k : rng.Uniform(base);
        rows.insert(rows.end(), rows.begin() + src * width,
                    rows.begin() + (src + 1) * width);
      }
      if (c.mixed_types) {
        // NaN and -0.0 in the float64 column rank through the total order.
        const size_t off = t.schema().offset(2);
        const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                                   -std::numeric_limits<double>::quiet_NaN(),
                                   -0.0, 0.0,
                                   std::numeric_limits<double>::infinity()};
        for (size_t k = 0; k < 40; ++k) {
          std::memcpy(rows.data() + (100 + 7 * k) * width + off,
                      &specials[k % 5], sizeof(double));
        }
      }
      const uint64_t n = rows.size() / width;
      const uint64_t oracle = AllPairsSkylineCount(spec, rows.data(), n);
      EXPECT_EQ(SampleSkylineCount(spec, rows.data(), n), oracle)
          << "case dims=" << c.dims << " seed=" << seed;
      EXPECT_GT(oracle, 0u);
    }
  }
}

}  // namespace
}  // namespace skyline
