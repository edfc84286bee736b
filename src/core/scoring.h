#ifndef SKYLINE_CORE_SCORING_H_
#define SKYLINE_CORE_SCORING_H_

#include <memory>
#include <vector>

#include "core/skyline_spec.h"
#include "relation/histogram.h"
#include "relation/table.h"
#include "sort/comparator.h"

namespace skyline {

/// The paper's entropy scoring function (Section 4.3):
///
///   E(t) = Σᵢ ln(xᵢ + 1)
///
/// where xᵢ is the i-th MIN/MAX criterion value normalized into [0,1]
/// (flipped for MIN so larger is always better). Ordering by E descending
/// approximates ordering by dominance probability Πᵢ xᵢ, which maximizes the
/// cumulative dominance number of the tuples that fill the SFS window.
///
/// Normalization uses per-column min/max statistics — exactly what an RDBMS
/// catalog keeps — so scores are computed from a tuple alone.
class EntropyScorer {
 public:
  /// `stats` holds one ColumnStats per schema column (as produced by
  /// TableBuilder). Columns with invalid stats (e.g. constant/empty input)
  /// contribute 0.
  EntropyScorer(const SkylineSpec* spec, std::vector<ColumnStats> stats);

  /// Convenience: pull stats from a table (whose schema must match).
  EntropyScorer(const SkylineSpec* spec, const Table& table);

  double Score(const char* row) const;

  /// Normalized value of the i-th value criterion in [0,1] (1 = best).
  double Normalized(size_t value_index, const char* row) const;

 private:
  struct ColumnNorm {
    size_t column;
    size_t offset;  // byte offset of the column in a row
    ColumnType type;
    bool max;
    double lo;
    double inv_span;  // 0 when the column is constant or stats invalid
  };

  const SkylineSpec* spec_;
  std::vector<ColumnNorm> norms_;
};

/// Positive linear scoring W(t) = Σ wᵢ·xᵢ over normalized criterion values
/// (Definition 3). Used to validate Lemma 2 / Theorem 4 experimentally: the
/// top scorer of any positive linear weighting is in the skyline, but not
/// every skyline tuple is a linear-scoring winner.
class LinearScorer {
 public:
  /// One positive weight per value criterion.
  LinearScorer(const SkylineSpec* spec, std::vector<ColumnStats> stats,
               std::vector<double> weights);

  double Score(const char* row) const;

 private:
  EntropyScorer normalizer_;  // reused for its Normalized() accessor
  std::vector<double> weights_;
};

/// RowOrdering that sorts by entropy score descending, with DIFF columns
/// outermost (ascending) so DIFF groups are contiguous. When the spec has no
/// DIFF columns the ordering exposes the score as its key, so the sorter
/// orders by one integer per row (the paper's "sorting on a single
/// attribute is faster than nested-sorting" observation).
class EntropyOrdering : public RowOrdering {
 public:
  EntropyOrdering(const SkylineSpec* spec, std::vector<ColumnStats> stats);
  EntropyOrdering(const SkylineSpec* spec, const Table& table);

  int Compare(const char* a, const char* b) const override;
  bool has_key() const override;
  double Key(const char* row) const override;

 private:
  const SkylineSpec* spec_;
  EntropyScorer scorer_;
  /// Equal entropy scores do not imply equivalent tuples: normalization
  /// goes through double, so distinct int64 values above 2^53 (or any
  /// colliding value mix) can score identically while one dominates the
  /// other. Breaking the tie with the exact nested order keeps the sort a
  /// strict topological order of dominance regardless.
  std::unique_ptr<LexicographicOrdering> tie_break_;
};

/// Entropy scoring normalized by *rank* (approximate CDF from equi-depth
/// histograms) instead of by value. The paper's E assumes uniformly
/// distributed attributes so that the normalized value equals the
/// dominance probability; under skew that equality breaks and E's window-
/// filling heuristic weakens. Rank normalization restores it exactly:
/// Cdf(v) *is* the fraction of tuples worse on that attribute, whatever
/// the marginal distribution.
///
/// Cdf is monotone but only *weakly*: sampled histograms can assign equal
/// ranks to distinct values (everything beyond the sample extremes, for
/// instance), so score ties can hide a dominance pair. The ordering below
/// therefore breaks score ties with the nested lexicographic comparison —
/// the combination is a strict topological order (Theorems 6/7 compose) —
/// and consequently opts out of the sorter's scalar-key fast path.
class RankEntropyScorer {
 public:
  /// Builds per-criterion histograms from `table` (`buckets` resolution;
  /// `sample_size` rows sampled, 0 = all).
  static Result<RankEntropyScorer> Build(const SkylineSpec* spec,
                                         const Table& table, size_t buckets,
                                         size_t sample_size = 0);

  double Score(const char* row) const;

  /// Rank of the i-th value criterion in [0,1] (1 = best).
  double Rank(size_t value_index, const char* row) const;

 private:
  RankEntropyScorer(const SkylineSpec* spec,
                    std::vector<EquiDepthHistogram> histograms)
      : spec_(spec), histograms_(std::move(histograms)) {}

  const SkylineSpec* spec_;
  std::vector<EquiDepthHistogram> histograms_;  // one per value criterion
};

/// RowOrdering over rank-entropy scores (DIFF outermost, score descending,
/// nested lexicographic tie-break), analogous to EntropyOrdering.
class RankEntropyOrdering : public RowOrdering {
 public:
  static Result<RankEntropyOrdering> Build(const SkylineSpec* spec,
                                           const Table& table, size_t buckets,
                                           size_t sample_size = 0);

  int Compare(const char* a, const char* b) const override;
  // No scalar key: ties must be broken lexicographically (see class
  // comment of RankEntropyScorer).

 private:
  RankEntropyOrdering(const SkylineSpec* spec, RankEntropyScorer scorer,
                      std::unique_ptr<LexicographicOrdering> tie_break)
      : spec_(spec),
        scorer_(std::move(scorer)),
        tie_break_(std::move(tie_break)) {}

  const SkylineSpec* spec_;
  RankEntropyScorer scorer_;
  std::unique_ptr<LexicographicOrdering> tie_break_;
};

/// The nested (lexicographic) presort of the paper's Figure 6: DIFF columns
/// outermost ascending, then each MIN/MAX criterion (descending for MAX,
/// ascending for MIN). Any such order is a topological sort of dominance
/// (Theorem 7).
std::unique_ptr<LexicographicOrdering> MakeNestedSkylineOrdering(
    const SkylineSpec& spec);

}  // namespace skyline

#endif  // SKYLINE_CORE_SCORING_H_
