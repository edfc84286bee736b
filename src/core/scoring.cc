#include "core/scoring.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace skyline {

EntropyScorer::EntropyScorer(const SkylineSpec* spec,
                             std::vector<ColumnStats> stats)
    : spec_(spec) {
  SKYLINE_CHECK_EQ(stats.size(), spec->schema().num_columns());
  norms_.reserve(spec->value_columns().size());
  for (const auto& vc : spec->value_columns()) {
    const ColumnStats& cs = stats[vc.column];
    ColumnNorm norm;
    norm.column = vc.column;
    norm.offset = spec->schema().offset(vc.column);
    norm.type = spec->schema().column(vc.column).type;
    norm.max = vc.max;
    norm.lo = cs.valid ? cs.min : 0.0;
    const double span = cs.valid ? cs.max - cs.min : 0.0;
    norm.inv_span = span > 0.0 ? 1.0 / span : 0.0;
    norms_.push_back(norm);
  }
}

namespace {

std::vector<ColumnStats> TableStats(const SkylineSpec* spec,
                                    const Table& table) {
  SKYLINE_CHECK(table.schema().Equals(spec->schema()))
      << "table schema does not match skyline spec schema";
  std::vector<ColumnStats> stats;
  stats.reserve(table.schema().num_columns());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    stats.push_back(table.stats(c));
  }
  return stats;
}

}  // namespace

EntropyScorer::EntropyScorer(const SkylineSpec* spec, const Table& table)
    : EntropyScorer(spec, TableStats(spec, table)) {}

double EntropyScorer::Normalized(size_t value_index, const char* row) const {
  const ColumnNorm& norm = norms_[value_index];
  // Schema::NumericValue, inlined: the presort scores every input row.
  double v = 0.0;
  const char* field = row + norm.offset;
  if (norm.type == ColumnType::kInt32) {
    int32_t i;
    std::memcpy(&i, field, sizeof(i));
    v = static_cast<double>(i);
  } else if (norm.type == ColumnType::kInt64) {
    int64_t i;
    std::memcpy(&i, field, sizeof(i));
    v = static_cast<double>(i);
  } else {
    std::memcpy(&v, field, sizeof(v));
  }
  double x = (v - norm.lo) * norm.inv_span;
  // NaN ranks past ±inf in the engine's total order of doubles; keeping
  // the score monotone in it keeps the entropy order a topological sort.
  if (std::isnan(x)) x = std::signbit(v) ? 0.0 : 1.0;
  if (x < 0.0) x = 0.0;
  if (x > 1.0) x = 1.0;
  return norm.max ? x : 1.0 - x;
}

double EntropyScorer::Score(const char* row) const {
  double score = 0.0;
  for (size_t i = 0; i < norms_.size(); ++i) {
    score += std::log1p(Normalized(i, row));
  }
  return score;
}

LinearScorer::LinearScorer(const SkylineSpec* spec,
                           std::vector<ColumnStats> stats,
                           std::vector<double> weights)
    : normalizer_(spec, std::move(stats)), weights_(std::move(weights)) {
  SKYLINE_CHECK_EQ(weights_.size(), spec->value_columns().size());
  for (double w : weights_) {
    SKYLINE_CHECK_GT(w, 0.0) << "linear scoring weights must be positive";
  }
}

double LinearScorer::Score(const char* row) const {
  double score = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    score += weights_[i] * normalizer_.Normalized(i, row);
  }
  return score;
}

EntropyOrdering::EntropyOrdering(const SkylineSpec* spec,
                                 std::vector<ColumnStats> stats)
    : spec_(spec),
      scorer_(spec, std::move(stats)),
      tie_break_(MakeNestedSkylineOrdering(*spec)) {}

EntropyOrdering::EntropyOrdering(const SkylineSpec* spec, const Table& table)
    : spec_(spec), scorer_(spec, table),
      tie_break_(MakeNestedSkylineOrdering(*spec)) {}

int EntropyOrdering::Compare(const char* a, const char* b) const {
  for (size_t col : spec_->diff_columns()) {
    int c = spec_->schema().CompareColumn(col, a, b);
    if (c != 0) return c;
  }
  const double ka = scorer_.Score(a);
  const double kb = scorer_.Score(b);
  if (ka > kb) return -1;  // larger score first
  if (kb > ka) return 1;
  return tie_break_->Compare(a, b);
}

bool EntropyOrdering::has_key() const { return !spec_->has_diff(); }

double EntropyOrdering::Key(const char* row) const {
  return scorer_.Score(row);
}

Result<RankEntropyScorer> RankEntropyScorer::Build(const SkylineSpec* spec,
                                                   const Table& table,
                                                   size_t buckets,
                                                   size_t sample_size) {
  if (!table.schema().Equals(spec->schema())) {
    return Status::InvalidArgument(
        "table schema does not match skyline spec schema");
  }
  std::vector<EquiDepthHistogram> histograms;
  histograms.reserve(spec->value_columns().size());
  for (const auto& vc : spec->value_columns()) {
    SKYLINE_ASSIGN_OR_RETURN(
        EquiDepthHistogram histogram,
        BuildColumnHistogram(table, vc.column, buckets, sample_size));
    histograms.push_back(std::move(histogram));
  }
  return RankEntropyScorer(spec, std::move(histograms));
}

double RankEntropyScorer::Rank(size_t value_index, const char* row) const {
  const auto& vc = spec_->value_columns()[value_index];
  const double v = spec_->schema().NumericValue(vc.column, row);
  const double cdf = histograms_[value_index].Cdf(v);
  return vc.max ? cdf : 1.0 - cdf;
}

double RankEntropyScorer::Score(const char* row) const {
  double score = 0.0;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    score += std::log1p(Rank(i, row));
  }
  return score;
}

Result<RankEntropyOrdering> RankEntropyOrdering::Build(const SkylineSpec* spec,
                                                       const Table& table,
                                                       size_t buckets,
                                                       size_t sample_size) {
  SKYLINE_ASSIGN_OR_RETURN(
      RankEntropyScorer scorer,
      RankEntropyScorer::Build(spec, table, buckets, sample_size));
  return RankEntropyOrdering(spec, std::move(scorer),
                             MakeNestedSkylineOrdering(*spec));
}

int RankEntropyOrdering::Compare(const char* a, const char* b) const {
  // DIFF columns are the outermost keys of the tie-break ordering too, so
  // delegating the tie to it preserves group contiguity.
  for (size_t col : spec_->diff_columns()) {
    int c = spec_->schema().CompareColumn(col, a, b);
    if (c != 0) return c;
  }
  const double ka = scorer_.Score(a);
  const double kb = scorer_.Score(b);
  if (ka > kb) return -1;
  if (kb > ka) return 1;
  return tie_break_->Compare(a, b);
}

std::unique_ptr<LexicographicOrdering> MakeNestedSkylineOrdering(
    const SkylineSpec& spec) {
  std::vector<SortKey> keys;
  keys.reserve(spec.diff_columns().size() + spec.value_columns().size());
  for (size_t col : spec.diff_columns()) {
    keys.push_back({col, /*descending=*/false});
  }
  for (const auto& vc : spec.value_columns()) {
    // MAX criteria sort descending (best first); MIN ascending.
    keys.push_back({vc.column, /*descending=*/vc.max});
  }
  return std::make_unique<LexicographicOrdering>(&spec.schema(),
                                                 std::move(keys));
}

}  // namespace skyline
