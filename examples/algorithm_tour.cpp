// Algorithm tour: runs every skyline algorithm in the library over the
// same generated data set and prints a comparison table — a miniature of
// the paper's Section 5 evaluation, handy for sanity-checking a build and
// for seeing the knobs in one place.
//
// Run: ./algorithm_tour [rows]    (default 50000)

#include <cstdio>
#include <cstdlib>

#include "baselines/divide_conquer.h"
#include "baselines/less.h"
#include "baselines/naive.h"
#include "common/stopwatch.h"
#include "core/skyline.h"

namespace {

using namespace skyline;

void Report(const char* name, uint64_t skyline_rows, double seconds,
            const SkylineRunStats* stats) {
  std::printf("  %-28s %8llu %9.3f", name,
              static_cast<unsigned long long>(skyline_rows), seconds);
  if (stats != nullptr) {
    std::printf(" %7llu %12llu %11llu",
                static_cast<unsigned long long>(stats->passes),
                static_cast<unsigned long long>(stats->ExtraPages()),
                static_cast<unsigned long long>(stats->window_comparisons));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Env* env = Env::Memory();
  const uint64_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;

  GeneratorOptions gen;
  gen.num_rows = rows;
  gen.seed = 7;
  auto table = GenerateTable(env, "tour", gen);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  constexpr int kDims = 5;
  auto spec_result = SkylineSpec::Make(table->schema(),
                                       {{"a0", Directive::kMax},
                                        {"a1", Directive::kMax},
                                        {"a2", Directive::kMax},
                                        {"a3", Directive::kMax},
                                        {"a4", Directive::kMax}});
  SKYLINE_CHECK(spec_result.ok());
  const SkylineSpec& spec = *spec_result;

  std::printf("%llu uniform tuples, %d-dimensional skyline.\n",
              static_cast<unsigned long long>(rows), kDims);
  std::printf("Expected skyline size (estimator): %.0f exact, %.0f asymptotic\n\n",
              ExpectedSkylineSize(rows, kDims),
              SkylineSizeAsymptotic(rows, kDims));
  std::printf("  %-28s %8s %9s %7s %12s %11s\n", "algorithm", "skyline",
              "seconds", "passes", "extra_pages", "dom_tests");

  const size_t window_pages = 8;  // small enough to exercise multi-pass

  {
    SfsOptions options;
    options.window_pages = window_pages;
    options.presort = Presort::kNested;
    options.use_projection = false;
    SkylineRunStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineSfs(*table, spec, options, ExecContext(), "tour_sfs0", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("SFS (nested sort)", sky->row_count(), timer.ElapsedSeconds(),
           &stats);
  }
  {
    SfsOptions options;
    options.window_pages = window_pages;
    options.presort = Presort::kEntropy;
    options.use_projection = false;
    SkylineRunStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineSfs(*table, spec, options, ExecContext(), "tour_sfs1", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("SFS w/E (entropy sort)", sky->row_count(), timer.ElapsedSeconds(),
           &stats);
  }
  {
    SfsOptions options;
    options.window_pages = window_pages;
    SkylineRunStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineSfs(*table, spec, options, ExecContext(), "tour_sfs2", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("SFS w/E,P (+ projection)", sky->row_count(),
           timer.ElapsedSeconds(), &stats);
  }
  {
    LessOptions options;
    options.window_pages = window_pages;
    LessStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineLess(*table, spec, options, ExecContext(), "tour_less", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("LESS (eliminate in sort)", sky->row_count(),
           timer.ElapsedSeconds(), &stats.run);
  }
  {
    BnlOptions options;
    options.window_pages = window_pages;
    SkylineRunStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineBnl(*table, spec, options, ExecContext(), "tour_bnl", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("BNL (random input)", sky->row_count(), timer.ElapsedSeconds(),
           &stats);
  }
  {
    EntropyOrdering entropy(&spec, *table);
    ReverseOrdering reversed(&entropy);
    BnlOptions options;
    options.window_pages = window_pages;
    options.input_ordering = &reversed;
    SkylineRunStats stats;
    Stopwatch timer;
    auto sky = ComputeSkylineBnl(*table, spec, options, ExecContext(), "tour_bnlre", &stats);
    SKYLINE_CHECK(sky.ok());
    Report("BNL w/RE (worst-case input)", sky->row_count(),
           timer.ElapsedSeconds(), &stats);
  }
  {
    Stopwatch timer;
    auto sky = DivideConquerSkylineRows(*table, spec);
    SKYLINE_CHECK(sky.ok());
    Report("divide & conquer (in-mem)",
           sky->size() / table->schema().row_width(), timer.ElapsedSeconds(),
           nullptr);
  }
  if (rows <= 20'000) {
    Stopwatch timer;
    auto sky = NaiveSkylineRows(*table, spec);
    SKYLINE_CHECK(sky.ok());
    Report("naive O(n^2) oracle", sky->size() / table->schema().row_width(),
           timer.ElapsedSeconds(), nullptr);
  } else {
    std::printf("  %-28s %8s  (skipped at this scale; run with rows<=20000)\n",
                "naive O(n^2) oracle", "-");
  }

  std::printf(
      "\nAll algorithms return the same skyline; they differ in passes,\n"
      "extra I/O, CPU (dominance tests), and output pipelining.\n");
  return 0;
}
