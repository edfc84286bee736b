#include "storage/column_file.h"

#include <limits>

#include "storage/sidecar_codec.h"

namespace skyline {
namespace {

constexpr char kMagic[8] = {'S', 'K', 'Y', 'C', 'O', 'L', 'F', '1'};
constexpr uint32_t kVersion = 1;

void ComputeZoneMaps(ColumnFileColumn* col, uint64_t row_count,
                     uint32_t block_rows, size_t blocks) {
  col->zmin.assign(blocks, std::numeric_limits<int64_t>::max());
  col->zmax.assign(blocks, std::numeric_limits<int64_t>::min());
  for (uint64_t i = 0; i < row_count; ++i) {
    const int64_t key = col->kind == ColumnFileKind::kKeyInt64
                            ? col->data64[i]
                            : static_cast<int64_t>(col->data32[i]);
    const size_t b = static_cast<size_t>(i / block_rows);
    if (key < col->zmin[b]) col->zmin[b] = key;
    if (key > col->zmax[b]) col->zmax[b] = key;
  }
}

Status CorruptColumnFile(const std::string& path, const std::string& what) {
  return Status::Corruption("column file " + path + ": " + what);
}

}  // namespace

Status WriteColumnFile(Env* env, const std::string& path,
                       ColumnFileContents contents) {
  if (contents.block_rows == 0) {
    return Status::InvalidArgument("column file block_rows must be positive");
  }
  const size_t blocks = contents.BlockCount();
  for (auto& col : contents.columns) {
    const size_t have = col.kind == ColumnFileKind::kKeyInt64
                            ? col.data64.size()
                            : col.data32.size();
    if (have != contents.row_count) {
      return Status::InvalidArgument(
          "column file column has " + std::to_string(have) + " keys for " +
          std::to_string(contents.row_count) + " rows");
    }
    if (col.kind == ColumnFileKind::kDictCode &&
        col.dict.size() !=
            static_cast<size_t>(col.dict_entries) * col.raw_width) {
      return Status::InvalidArgument("column file dictionary blob size");
    }
    ComputeZoneMaps(&col, contents.row_count, contents.block_rows, blocks);
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutScalar(&out, kVersion);
  PutScalar(&out, contents.block_rows);
  PutScalar(&out, contents.row_count);
  PutScalar(&out, static_cast<uint32_t>(contents.columns.size()));
  for (const auto& col : contents.columns) {
    PutScalar(&out, static_cast<uint8_t>(col.kind));
    PutScalar(&out, col.raw_width);
    PutScalar(&out, col.dict_entries);
  }
  for (const auto& col : contents.columns) {
    for (size_t b = 0; b < blocks; ++b) PutScalar(&out, col.zmin[b]);
    for (size_t b = 0; b < blocks; ++b) PutScalar(&out, col.zmax[b]);
  }
  for (const auto& col : contents.columns) {
    out.append(col.dict);
  }
  for (const auto& col : contents.columns) {
    if (col.kind == ColumnFileKind::kKeyInt64) {
      PutVector(&out, col.data64);
    } else {
      PutVector(&out, col.data32);
    }
  }
  return WriteSealedFile(env, path, &out);
}

Result<ColumnFileContents> ReadColumnFile(Env* env, const std::string& path) {
  std::string raw;
  SKYLINE_RETURN_IF_ERROR(ReadSealedFile(env, path, kMagic, "column file", &raw));
  size_t pos = sizeof(kMagic);
  uint32_t version;
  ColumnFileContents contents;
  uint32_t num_columns;
  if (!GetScalar(raw, &pos, &version) ||
      !GetScalar(raw, &pos, &contents.block_rows) ||
      !GetScalar(raw, &pos, &contents.row_count) ||
      !GetScalar(raw, &pos, &num_columns)) {
    return CorruptColumnFile(path, "truncated header");
  }
  if (version != kVersion) {
    return CorruptColumnFile(path,
                             "unsupported version " + std::to_string(version));
  }
  if (contents.block_rows == 0) {
    return CorruptColumnFile(path, "zero block_rows");
  }
  contents.columns.resize(num_columns);
  for (auto& col : contents.columns) {
    uint8_t kind;
    if (!GetScalar(raw, &pos, &kind) || !GetScalar(raw, &pos, &col.raw_width) ||
        !GetScalar(raw, &pos, &col.dict_entries)) {
      return CorruptColumnFile(path, "truncated column header");
    }
    if (kind > static_cast<uint8_t>(ColumnFileKind::kDictCode)) {
      return CorruptColumnFile(path, "unknown column kind");
    }
    col.kind = static_cast<ColumnFileKind>(kind);
    if (col.kind == ColumnFileKind::kDictCode && col.raw_width == 0) {
      return CorruptColumnFile(path, "dictionary column with zero width");
    }
  }
  const size_t blocks = contents.BlockCount();
  for (auto& col : contents.columns) {
    if (!GetVector(raw, &pos, blocks, &col.zmin) ||
        !GetVector(raw, &pos, blocks, &col.zmax)) {
      return CorruptColumnFile(path, "truncated zone maps");
    }
  }
  for (auto& col : contents.columns) {
    const size_t bytes =
        static_cast<size_t>(col.dict_entries) * col.raw_width;
    if (pos + bytes > raw.size()) {
      return CorruptColumnFile(path, "truncated dictionary");
    }
    col.dict.assign(raw.data() + pos, bytes);
    pos += bytes;
  }
  for (auto& col : contents.columns) {
    const bool ok =
        col.kind == ColumnFileKind::kKeyInt64
            ? GetVector(raw, &pos, contents.row_count, &col.data64)
            : GetVector(raw, &pos, contents.row_count, &col.data32);
    if (!ok) return CorruptColumnFile(path, "truncated key data");
  }
  if (pos + sizeof(uint64_t) != raw.size()) {
    return CorruptColumnFile(path, "trailing bytes");
  }
  return contents;
}

}  // namespace skyline
