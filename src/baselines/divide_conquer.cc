#include "baselines/divide_conquer.h"

#include <algorithm>
#include <map>
#include <string>

#include "core/dominance.h"
#include "baselines/naive.h"

namespace skyline {
namespace {

/// Threshold below which recursion falls back to the quadratic scan.
constexpr size_t kBaseCaseSize = 32;

class DcSolver {
 public:
  DcSolver(const SkylineSpec& spec, const char* rows)
      : spec_(spec), rows_(rows), width_(spec.schema().row_width()) {}

  const char* Row(uint64_t i) const { return rows_ + i * width_; }

  /// Computes the skyline of `indices` in place (survivors kept).
  void Solve(std::vector<uint64_t>* indices) {
    if (indices->size() <= kBaseCaseSize) {
      Base(indices);
      return;
    }
    // Median split on the first value criterion; "better" half first
    // (larger for MAX, smaller for MIN).
    const auto& vc = spec_.value_columns().front();
    auto better_first = [&](uint64_t a, uint64_t b) {
      int c = spec_.schema().CompareColumn(vc.column, Row(a), Row(b));
      return vc.max ? c > 0 : c < 0;
    };
    const size_t mid = indices->size() / 2;
    std::nth_element(indices->begin(), indices->begin() + mid, indices->end(),
                     better_first);
    std::vector<uint64_t> good(indices->begin(), indices->begin() + mid);
    std::vector<uint64_t> bad(indices->begin() + mid, indices->end());
    // Degenerate split (all keys equal) — fall back to the base case to
    // guarantee progress.
    if (good.empty() || bad.empty()) {
      Base(indices);
      return;
    }
    Solve(&good);
    Solve(&bad);
    // Filter the worse half by the better half's skyline. (Tuples in the
    // better half cannot be dominated by the worse half: their split key is
    // at least as good, so worse-half tuples never strictly dominate them
    // ... except when split keys tie, which the dominance test handles —
    // so we filter both directions for full correctness on ties.)
    std::vector<uint64_t> merged;
    merged.reserve(good.size() + bad.size());
    for (uint64_t g : good) {
      if (!DominatedByAny(g, bad)) merged.push_back(g);
    }
    for (uint64_t b : bad) {
      if (!DominatedByAny(b, good)) merged.push_back(b);
    }
    std::sort(merged.begin(), merged.end());
    *indices = std::move(merged);
  }

 private:
  bool DominatedByAny(uint64_t candidate,
                      const std::vector<uint64_t>& others) const {
    const char* row = Row(candidate);
    for (uint64_t o : others) {
      if (Dominates(spec_, Row(o), row)) return true;
    }
    return false;
  }

  void Base(std::vector<uint64_t>* indices) {
    std::vector<uint64_t> keep;
    keep.reserve(indices->size());
    for (size_t i = 0; i < indices->size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < indices->size() && !dominated; ++j) {
        if (i == j) continue;
        dominated =
            Dominates(spec_, Row((*indices)[j]), Row((*indices)[i]));
      }
      if (!dominated) keep.push_back((*indices)[i]);
    }
    *indices = std::move(keep);
  }

  const SkylineSpec& spec_;
  const char* rows_;
  size_t width_;
};

}  // namespace

std::vector<uint64_t> DivideConquerSkylineIndices(const SkylineSpec& spec,
                                                  const char* rows,
                                                  uint64_t count) {
  const size_t width = spec.schema().row_width();
  DcSolver solver(spec, rows);

  // Partition into DIFF groups (tuples in different groups are mutually
  // incomparable), solve each group independently.
  std::map<std::string, std::vector<uint64_t>> groups;
  if (spec.has_diff()) {
    for (uint64_t i = 0; i < count; ++i) {
      std::string key;
      for (size_t col : spec.diff_columns()) {
        const char* base = rows + i * width + spec.schema().offset(col);
        key.append(base, spec.schema().column_width(col));
      }
      groups[key].push_back(i);
    }
  } else {
    std::vector<uint64_t>& all = groups[""];
    all.resize(count);
    for (uint64_t i = 0; i < count; ++i) all[i] = i;
  }

  std::vector<uint64_t> result;
  for (auto& [key, indices] : groups) {
    solver.Solve(&indices);
    result.insert(result.end(), indices.begin(), indices.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

Result<std::vector<char>> DivideConquerSkylineRows(const Table& input,
                                                   const SkylineSpec& spec) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  std::vector<char> rows;
  SKYLINE_RETURN_IF_ERROR(input.ReadAllRows(&rows));
  const size_t width = spec.schema().row_width();
  std::vector<uint64_t> indices =
      DivideConquerSkylineIndices(spec, rows.data(), input.row_count());
  std::vector<char> out;
  out.reserve(indices.size() * width);
  for (uint64_t i : indices) {
    out.insert(out.end(), rows.data() + i * width,
               rows.data() + (i + 1) * width);
  }
  return out;
}

}  // namespace skyline
