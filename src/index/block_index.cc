#include "index/block_index.h"

#include <algorithm>
#include <numeric>

#include "storage/sidecar_codec.h"

namespace skyline {
namespace {

constexpr char kMagic[8] = {'S', 'K', 'Y', 'Z', 'I', 'D', 'X', '1'};
constexpr uint32_t kVersion = 1;
/// At most this many numeric columns contribute bits to the Morton key
/// (64-bit code, at least one bit per participating column).
constexpr size_t kMaxZOrderColumns = 64;

Status CorruptIndexFile(const std::string& path, const std::string& what) {
  return Status::Corruption("block index " + path + ": " + what);
}

/// Quantizes the center of [lo, hi] into [0, 2^bits) of the global range
/// [gmin, gmax]. __int128 everywhere: key ranges span the full int64 line
/// (float64 total-order bits do in practice).
uint64_t Quantize(int64_t lo, int64_t hi, int64_t gmin, int64_t gmax,
                  uint32_t bits) {
  if (gmax <= gmin) return 0;
  const __int128 center = (static_cast<__int128>(lo) + hi) / 2;
  const __int128 range = static_cast<__int128>(gmax) - gmin;
  const uint64_t maxq = (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
  __int128 off = center - gmin;
  if (off < 0) off = 0;
  if (off > range) off = range;
  return static_cast<uint64_t>((off * maxq) / range);
}

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Number of packed levels a valid index over `leaves` leaf slots has:
/// level 0 always exists (when there are leaves), further levels until a
/// level fits within one root fan-in.
size_t ExpectedLevels(size_t leaves, uint32_t fanout) {
  if (leaves == 0) return 0;
  size_t levels = 1;
  size_t nodes = CeilDiv(leaves, fanout);
  while (nodes > fanout) {
    nodes = CeilDiv(nodes, fanout);
    ++levels;
  }
  return levels;
}

}  // namespace

size_t BlockSkylineIndex::ChildCount(size_t level, size_t node) const {
  const size_t children_total =
      level == 0 ? leaf_count() : LevelNodeCount(level - 1);
  const size_t start = node * fanout;
  if (start >= children_total) return 0;
  return std::min<size_t>(fanout, children_total - start);
}

Result<BlockSkylineIndex> BuildBlockIndex(
    uint32_t block_rows, uint64_t row_count,
    const std::vector<BlockIndexColumnZones>& columns, uint32_t fanout) {
  if (block_rows == 0 || fanout < 2 || columns.empty()) {
    return Status::InvalidArgument("block index needs block_rows, fanout >= 2"
                                   " and at least one column");
  }
  const size_t blocks =
      static_cast<size_t>((row_count + block_rows - 1) / block_rows);
  for (const auto& col : columns) {
    if (col.zmin == nullptr || col.zmax == nullptr ||
        col.zmin->size() != blocks || col.zmax->size() != blocks) {
      return Status::InvalidArgument(
          "block index zone maps do not cover every block");
    }
  }

  BlockSkylineIndex index;
  index.block_rows = block_rows;
  index.row_count = row_count;
  index.num_columns = static_cast<uint32_t>(columns.size());
  index.fanout = fanout;
  if (blocks == 0) return index;

  // Z-order the leaves: Morton code over the quantized zone centers of the
  // numeric columns, MSB-first round-robin so every column contributes its
  // high bits before any contributes low ones.
  std::vector<size_t> zcols;
  for (size_t c = 0; c < columns.size() && zcols.size() < kMaxZOrderColumns;
       ++c) {
    if (columns[c].numeric) zcols.push_back(c);
  }
  index.leaf_blocks.resize(blocks);
  std::iota(index.leaf_blocks.begin(), index.leaf_blocks.end(), 0u);
  if (!zcols.empty()) {
    const uint32_t bits = static_cast<uint32_t>(
        std::min<size_t>(16, std::max<size_t>(1, 64 / zcols.size())));
    std::vector<int64_t> gmin(zcols.size()), gmax(zcols.size());
    for (size_t i = 0; i < zcols.size(); ++i) {
      const auto& col = columns[zcols[i]];
      gmin[i] = *std::min_element(col.zmin->begin(), col.zmin->end());
      gmax[i] = *std::max_element(col.zmax->begin(), col.zmax->end());
    }
    std::vector<uint64_t> code(blocks, 0);
    std::vector<uint64_t> q(zcols.size());
    for (size_t b = 0; b < blocks; ++b) {
      for (size_t i = 0; i < zcols.size(); ++i) {
        const auto& col = columns[zcols[i]];
        q[i] = Quantize((*col.zmin)[b], (*col.zmax)[b], gmin[i], gmax[i],
                        bits);
      }
      uint64_t m = 0;
      for (uint32_t bit = bits; bit-- > 0;) {
        for (size_t i = 0; i < zcols.size(); ++i) {
          m = (m << 1) | ((q[i] >> bit) & 1);
        }
      }
      code[b] = m;
    }
    std::sort(index.leaf_blocks.begin(), index.leaf_blocks.end(),
              [&code](uint32_t a, uint32_t b) {
                return code[a] != code[b] ? code[a] < code[b] : a < b;
              });
  }

  // Pack interior levels bottom-up, aggregating per-column corners.
  const size_t ncols = columns.size();
  size_t children = blocks;
  size_t level = 0;
  while (level == 0 || children > fanout) {
    const size_t nodes = CeilDiv(children, fanout);
    BlockSkylineIndex::Level packed;
    packed.zmin.resize(nodes * ncols);
    packed.zmax.resize(nodes * ncols);
    for (size_t n = 0; n < nodes; ++n) {
      const size_t begin = n * fanout;
      const size_t end = std::min(begin + fanout, children);
      for (size_t c = 0; c < ncols; ++c) {
        int64_t lo = 0, hi = 0;
        for (size_t s = begin; s < end; ++s) {
          int64_t cmin, cmax;
          if (level == 0) {
            const uint32_t block = index.leaf_blocks[s];
            cmin = (*columns[c].zmin)[block];
            cmax = (*columns[c].zmax)[block];
          } else {
            const auto& below = index.levels[level - 1];
            cmin = below.zmin[s * ncols + c];
            cmax = below.zmax[s * ncols + c];
          }
          if (s == begin || cmin < lo) lo = cmin;
          if (s == begin || cmax > hi) hi = cmax;
        }
        packed.zmin[n * ncols + c] = lo;
        packed.zmax[n * ncols + c] = hi;
      }
    }
    index.levels.push_back(std::move(packed));
    children = nodes;
    ++level;
  }
  return index;
}

std::string BlockIndexPathFor(const std::string& table_path) {
  return table_path + ".zidx";
}

Status WriteBlockIndexFile(Env* env, const std::string& path,
                           const BlockSkylineIndex& index) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutScalar(&out, kVersion);
  PutScalar(&out, index.block_rows);
  PutScalar(&out, index.row_count);
  PutScalar(&out, index.num_columns);
  PutScalar(&out, index.fanout);
  PutScalar(&out, static_cast<uint32_t>(index.leaf_blocks.size()));
  PutScalar(&out, static_cast<uint32_t>(index.levels.size()));
  PutVector(&out, index.leaf_blocks);
  for (const auto& level : index.levels) {
    PutScalar(&out, static_cast<uint32_t>(level.zmin.size() /
                                          std::max<uint32_t>(
                                              1, index.num_columns)));
    PutVector(&out, level.zmin);
    PutVector(&out, level.zmax);
  }
  return WriteSealedFile(env, path, &out);
}

Result<BlockSkylineIndex> ReadBlockIndexFile(Env* env,
                                             const std::string& path) {
  std::string raw;
  SKYLINE_RETURN_IF_ERROR(ReadSealedFile(env, path, kMagic, "block index", &raw));
  size_t pos = sizeof(kMagic);
  uint32_t version, leaf_count, num_levels;
  BlockSkylineIndex index;
  if (!GetScalar(raw, &pos, &version) ||
      !GetScalar(raw, &pos, &index.block_rows) ||
      !GetScalar(raw, &pos, &index.row_count) ||
      !GetScalar(raw, &pos, &index.num_columns) ||
      !GetScalar(raw, &pos, &index.fanout) ||
      !GetScalar(raw, &pos, &leaf_count) ||
      !GetScalar(raw, &pos, &num_levels)) {
    return CorruptIndexFile(path, "truncated header");
  }
  if (version != kVersion) {
    return CorruptIndexFile(path,
                            "unsupported version " + std::to_string(version));
  }
  if (index.block_rows == 0 || index.fanout < 2 || index.num_columns == 0) {
    return CorruptIndexFile(path, "bad geometry");
  }
  const uint64_t expect_leaves =
      (index.row_count + index.block_rows - 1) / index.block_rows;
  if (leaf_count != expect_leaves) {
    return CorruptIndexFile(path, "leaf count does not match row count");
  }
  if (num_levels != ExpectedLevels(leaf_count, index.fanout)) {
    return CorruptIndexFile(path, "unexpected level count");
  }
  if (!GetVector(raw, &pos, leaf_count, &index.leaf_blocks)) {
    return CorruptIndexFile(path, "truncated leaf order");
  }
  {
    std::vector<bool> seen(leaf_count, false);
    for (uint32_t b : index.leaf_blocks) {
      if (b >= leaf_count || seen[b]) {
        return CorruptIndexFile(path, "leaf order is not a permutation");
      }
      seen[b] = true;
    }
  }
  index.levels.resize(num_levels);
  size_t children = leaf_count;
  for (size_t l = 0; l < num_levels; ++l) {
    uint32_t node_count;
    if (!GetScalar(raw, &pos, &node_count)) {
      return CorruptIndexFile(path, "truncated level header");
    }
    if (node_count != CeilDiv(children, index.fanout)) {
      return CorruptIndexFile(path, "level does not pack the level below");
    }
    const size_t corners = static_cast<size_t>(node_count) *
                           index.num_columns;
    if (!GetVector(raw, &pos, corners, &index.levels[l].zmin) ||
        !GetVector(raw, &pos, corners, &index.levels[l].zmax)) {
      return CorruptIndexFile(path, "truncated level corners");
    }
    children = node_count;
  }
  if (pos + sizeof(uint64_t) != raw.size()) {
    return CorruptIndexFile(path, "trailing bytes");
  }
  return index;
}

}  // namespace skyline
