#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "core/cardinality.h"
#include "core/scoring.h"
#include "core/window.h"
#include "storage/page.h"

namespace skyline {
namespace {

/// Rows sampled to measure a skyline cardinality for kAuto.
constexpr uint64_t kAccessSampleRows = 2048;

}  // namespace

uint64_t SampleSkylineCount(const SkylineSpec& spec, const char* rows,
                            uint64_t count) {
  if (count == 0) return 0;
  const size_t width = spec.schema().row_width();
  // The sample's own min/max normalize the entropy score. Any monotone
  // score with the ordering's exact tie-break is a topological sort of
  // dominance, which is all the window pass needs.
  std::vector<ColumnStats> stats(spec.schema().num_columns());
  for (const auto& vc : spec.value_columns()) {
    for (uint64_t i = 0; i < count; ++i) {
      stats[vc.column].Observe(
          spec.schema().NumericValue(vc.column, rows + i * width));
    }
  }
  EntropyOrdering ordering(&spec, std::move(stats));
  std::vector<std::pair<uint64_t, uint32_t>> order(count);
  for (uint64_t i = 0; i < count; ++i) {
    order[i] = {ordering.PrefixKey(rows + i * width),
                static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return ordering.Compare(rows + a.second * width,
                                      rows + b.second * width) < 0;
            });
  // Every dominated row has a dominating skyline row earlier in this
  // order, so testing each row against the confirmed members alone decides
  // it. Equal rows (kDuplicateSkyline) are all members, as SFS emits them.
  const size_t per_page = RecordsPerPage(spec.projected_schema().row_width());
  Window window(&spec, static_cast<size_t>((count + per_page - 1) / per_page),
                /*projected=*/true);
  uint64_t skyline = 0;
  for (const auto& entry : order) {
    const Window::Verdict verdict =
        window.Test(rows + static_cast<size_t>(entry.second) * width);
    if (verdict == Window::Verdict::kAdded ||
        verdict == Window::Verdict::kDuplicateSkyline) {
      ++skyline;
    }
  }
  return skyline;
}

uint64_t SfsPassesForSkyline(uint64_t skyline_count,
                             uint64_t window_capacity) {
  SKYLINE_CHECK_GT(window_capacity, 0u);
  if (skyline_count == 0) return 1;  // one scan to find out
  return (skyline_count + window_capacity - 1) / window_capacity;
}

SfsCostEstimate EstimateSfsCost(uint64_t n, int dims, size_t row_width,
                                size_t projected_width,
                                const SfsOptions& options) {
  SfsCostEstimate estimate;
  estimate.skyline_cardinality = ExpectedSkylineSize(n, dims);
  const size_t entry_width =
      options.use_projection ? projected_width : row_width;
  estimate.window_capacity =
      options.window_pages * RecordsPerPage(entry_width);
  estimate.passes = SfsPassesForSkyline(
      static_cast<uint64_t>(std::llround(estimate.skyline_cardinality)),
      estimate.window_capacity);
  estimate.input_pages = HeapFilePageCount(n, row_width);

  // Spill bound: during pass p (0-based), at least p*capacity skyline
  // tuples are already confirmed; every tuple they dominate is eliminated
  // on sight. What spills is (a) the remaining skyline tuples and (b)
  // non-skyline tuples not dominated by the cached prefix. (b) shrinks
  // fast under an entropy order; we bound it loosely by assuming each
  // subsequent pass carries at most half of the previous pass's spill
  // mass plus the outstanding skyline tuples.
  double remaining_skyline = estimate.skyline_cardinality;
  double carried = static_cast<double>(n);
  double spilled = 0;
  for (uint64_t p = 0; p < estimate.passes; ++p) {
    const double confirmed = std::min(
        remaining_skyline, static_cast<double>(estimate.window_capacity));
    remaining_skyline -= confirmed;
    if (remaining_skyline <= 0) break;
    carried = carried / 2 + remaining_skyline;
    spilled += carried;
  }
  estimate.spilled_tuples_bound = spilled;
  const double per_page = static_cast<double>(RecordsPerPage(row_width));
  estimate.extra_pages_bound = 2.0 * std::ceil(spilled / per_page);
  return estimate;
}

SfsCostEstimate EstimateSfsCost(uint64_t n, const SkylineSpec& spec,
                                const SfsOptions& options) {
  return EstimateSfsCost(n, static_cast<int>(spec.num_dimensions()),
                         spec.schema().row_width(),
                         spec.projected_schema().row_width(), options);
}

SkylineAccessChoice ChooseSkylineAccess(const Table& input,
                                        const SkylineSpec& spec,
                                        bool index_available) {
  SkylineAccessChoice choice;
  if (spec.value_columns().size() == 2) {
    choice.path = SkylineAccessPath::kSpecial2d;
    return choice;
  }
  if (spec.value_columns().size() == 3) {
    choice.path = SkylineAccessPath::kSpecial3d;
    return choice;
  }
  choice.path = SkylineAccessPath::kSfs;
  const uint64_t n = input.row_count();
  if (!index_available || spec.has_diff() || n < 2) return choice;

  const uint64_t sample_n = std::min<uint64_t>(kAccessSampleRows, n);
  const size_t width = spec.schema().row_width();
  std::vector<char> rows(static_cast<size_t>(sample_n) * width);
  {
    // Stride across the whole file rather than reading a prefix: a prefix
    // is unrepresentative whenever the table is presorted or z-order
    // clustered — it then covers one corner of key space, and that
    // corner's local skyline wildly over- or under-states the global one.
    auto reader = input.NewReader(nullptr);
    if (!reader->Open().ok()) return choice;
    const uint64_t stride = n / sample_n;  // >= 1
    for (uint64_t i = 0; i < sample_n; ++i) {
      if (!reader->SeekToRecord(i * stride).ok()) return choice;
      const char* row = reader->Next();
      if (row == nullptr) return choice;
      std::memcpy(rows.data() + i * width, row, width);
    }
  }
  choice.sample_rows = sample_n;
  choice.sample_skyline = SampleSkylineCount(spec, rows.data(), sample_n);
  choice.estimated_skyline = ExtrapolateSkylineSize(
      static_cast<double>(choice.sample_skyline), sample_n, n,
      static_cast<int>(spec.num_dimensions()));
  choice.bbs_threshold = std::max(64.0, static_cast<double>(n) / 2000.0);
  if (choice.estimated_skyline <= choice.bbs_threshold) {
    choice.path = SkylineAccessPath::kBbs;
  }
  return choice;
}

}  // namespace skyline
