#ifndef SKYLINE_BASELINES_DIVIDE_CONQUER_H_
#define SKYLINE_BASELINES_DIVIDE_CONQUER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/skyline_spec.h"
#include "relation/table.h"

namespace skyline {

/// In-memory divide & conquer skyline (the D&C algorithm of Börzsönyi et
/// al., after Kung/Luccio/Preparata's maximal-vector algorithm): split on
/// the median of the first MIN/MAX criterion, recursively compute both
/// halves' skylines, then remove from the worse half everything dominated
/// by the better half.
///
/// The paper discusses D&C only as the in-memory comparison point (its
/// external variant "would not scale well for larger datasets"), so this
/// implementation is deliberately memory-resident; the ablation bench pits
/// it against SFS and BNL on equal in-memory footing.
///
/// DIFF criteria are honored by partitioning into DIFF groups first.
/// Returns indices of skyline rows (ascending input order).
std::vector<uint64_t> DivideConquerSkylineIndices(const SkylineSpec& spec,
                                                  const char* rows,
                                                  uint64_t count);

/// Convenience over a Table; returns a dense buffer of skyline rows in
/// input order.
Result<std::vector<char>> DivideConquerSkylineRows(const Table& input,
                                                   const SkylineSpec& spec);

}  // namespace skyline

#endif  // SKYLINE_BASELINES_DIVIDE_CONQUER_H_
