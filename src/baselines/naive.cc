#include "baselines/naive.h"

#include "core/dominance.h"

namespace skyline {

std::vector<uint64_t> NaiveSkylineIndices(const SkylineSpec& spec,
                                          const char* rows, uint64_t count) {
  const size_t width = spec.schema().row_width();
  std::vector<uint64_t> result;
  for (uint64_t i = 0; i < count; ++i) {
    const char* candidate = rows + i * width;
    bool dominated = false;
    for (uint64_t j = 0; j < count && !dominated; ++j) {
      if (j == i) continue;
      dominated = Dominates(spec, rows + j * width, candidate);
    }
    if (!dominated) result.push_back(i);
  }
  return result;
}

Result<std::vector<char>> NaiveSkylineRows(const Table& input,
                                           const SkylineSpec& spec) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  std::vector<char> rows;
  SKYLINE_RETURN_IF_ERROR(input.ReadAllRows(&rows));
  const size_t width = spec.schema().row_width();
  std::vector<uint64_t> indices =
      NaiveSkylineIndices(spec, rows.data(), input.row_count());
  std::vector<char> out;
  out.reserve(indices.size() * width);
  for (uint64_t i : indices) {
    out.insert(out.end(), rows.data() + i * width,
               rows.data() + (i + 1) * width);
  }
  return out;
}

}  // namespace skyline
