#ifndef SKYLINE_BASELINES_NAIVE_H_
#define SKYLINE_BASELINES_NAIVE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/skyline_spec.h"
#include "relation/table.h"

namespace skyline {

/// O(n²) nested-loop skyline over an in-memory row buffer: a row is skyline
/// iff no other row strictly dominates it. This is the semantics of the
/// paper's Figure 5 self-join-except SQL formulation and serves as the
/// correctness oracle for every other algorithm. Returns the indices of
/// skyline rows in input order.
std::vector<uint64_t> NaiveSkylineIndices(const SkylineSpec& spec,
                                          const char* rows, uint64_t count);

/// Convenience: materializes the naive skyline of `input` into a dense row
/// buffer (rows in input order).
Result<std::vector<char>> NaiveSkylineRows(const Table& input,
                                           const SkylineSpec& spec);

}  // namespace skyline

#endif  // SKYLINE_BASELINES_NAIVE_H_
