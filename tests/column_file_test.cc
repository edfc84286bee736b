#include "storage/column_file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/run_report.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "relation/column_store.h"
#include "relation/table_io.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;

std::string ReadWholeFile(Env* env, const std::string& path) {
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_TRUE(env->NewRandomAccessFile(path, &file).ok());
  std::string bytes(file->Size(), '\0');
  EXPECT_TRUE(file->Read(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

void WriteWholeFile(Env* env, const std::string& path,
                    const std::string& bytes) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(file->Close().ok());
}

ColumnFileContents SampleContents(uint64_t rows) {
  ColumnFileContents contents;
  contents.block_rows = 64;
  contents.row_count = rows;
  contents.columns.resize(3);
  auto& ints = contents.columns[0];
  ints.kind = ColumnFileKind::kKeyInt32;
  ints.raw_width = 4;
  auto& longs = contents.columns[1];
  longs.kind = ColumnFileKind::kKeyInt64;
  longs.raw_width = 8;
  auto& codes = contents.columns[2];
  codes.kind = ColumnFileKind::kDictCode;
  codes.raw_width = 4;
  codes.dict_entries = 2;
  codes.dict = std::string("abc\0", 4) + std::string("xyz\0", 4);
  for (uint64_t i = 0; i < rows; ++i) {
    ints.data32.push_back(static_cast<int32_t>(i % 100));
    longs.data64.push_back((int64_t{1} << 53) + static_cast<int64_t>(i));
    codes.data32.push_back(static_cast<int32_t>(i % 2));
  }
  return contents;
}

TEST(ColumnFile, RoundTripsBlocksZonesAndDictionary) {
  auto env = NewMemEnv();
  ASSERT_OK(WriteColumnFile(env.get(), "t.cols", SampleContents(130)));
  ASSERT_OK_AND_ASSIGN(ColumnFileContents read,
                       ReadColumnFile(env.get(), "t.cols"));
  EXPECT_EQ(read.block_rows, 64u);
  EXPECT_EQ(read.row_count, 130u);
  EXPECT_EQ(read.BlockCount(), 3u);
  ASSERT_EQ(read.columns.size(), 3u);

  const ColumnFileContents expect = SampleContents(130);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(read.columns[c].kind, expect.columns[c].kind) << c;
    EXPECT_EQ(read.columns[c].raw_width, expect.columns[c].raw_width) << c;
    EXPECT_EQ(read.columns[c].data32, expect.columns[c].data32) << c;
    EXPECT_EQ(read.columns[c].data64, expect.columns[c].data64) << c;
    EXPECT_EQ(read.columns[c].dict, expect.columns[c].dict) << c;
    // Zone maps are recomputed at write time; spot-check block 1 of the
    // int32 column: rows 64..127 hold (i % 100).
    ASSERT_EQ(read.columns[c].zmin.size(), 3u) << c;
  }
  EXPECT_EQ(read.columns[0].zmin[1], 0);    // rows 100..127 wrap to 0..27
  EXPECT_EQ(read.columns[0].zmax[1], 99);
  EXPECT_EQ(read.columns[1].zmin[0], int64_t{1} << 53);
  EXPECT_EQ(read.columns[1].zmax[2], (int64_t{1} << 53) + 129);
  EXPECT_EQ(read.columns[2].zmin[0], 0);
  EXPECT_EQ(read.columns[2].zmax[0], 1);
}

TEST(ColumnFile, DetectsCorruptionAndTruncation) {
  auto env = NewMemEnv();
  ASSERT_OK(WriteColumnFile(env.get(), "t.cols", SampleContents(100)));
  const std::string good = ReadWholeFile(env.get(), "t.cols");

  // A flipped byte anywhere in the body fails the trailing checksum.
  std::string bad = good;
  bad[bad.size() / 2] ^= 0x40;
  WriteWholeFile(env.get(), "t.cols", bad);
  EXPECT_TRUE(ReadColumnFile(env.get(), "t.cols").status().IsCorruption());

  // Truncation fails before any structure is trusted.
  WriteWholeFile(env.get(), "t.cols", good.substr(0, good.size() / 3));
  EXPECT_TRUE(ReadColumnFile(env.get(), "t.cols").status().IsCorruption());

  // A stale-version file is rejected, not misparsed.
  std::string wrong_version = good;
  wrong_version[8] = 9;  // version field follows the 8-byte magic
  WriteWholeFile(env.get(), "t.cols", wrong_version);
  EXPECT_TRUE(ReadColumnFile(env.get(), "t.cols").status().IsCorruption());

  WriteWholeFile(env.get(), "t.cols", good);
  EXPECT_OK(ReadColumnFile(env.get(), "t.cols").status());
}

TEST(ColumnFile, TableSidecarMatchesScanAndValidatesShape) {
  auto env = NewMemEnv();
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({i, 199 - i, (i * 7) % 13});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env.get(), "t", 3, rows));
  ASSERT_OK(WriteTableColumnFile(t));
  EXPECT_TRUE(env->FileExists(ColumnFilePathFor("t")));

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> scanned,
                       BuildTableColumnZones(t));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> loaded,
                       LoadTableColumnZones(t));
  EXPECT_STREQ(scanned->source, "scan");
  EXPECT_STREQ(loaded->source, "column_file");
  ASSERT_EQ(loaded->columns.size(), scanned->columns.size());
  EXPECT_EQ(loaded->block_rows, scanned->block_rows);
  for (size_t c = 0; c < scanned->columns.size(); ++c) {
    EXPECT_EQ(loaded->columns[c].zmin, scanned->columns[c].zmin) << c;
    EXPECT_EQ(loaded->columns[c].zmax, scanned->columns[c].zmax) << c;
  }

  // A rebuilt table with a different shape must reject the stale sidecar.
  rows.push_back({1, 2, 3});
  ASSERT_OK_AND_ASSIGN(Table regrown, MakeIntTable(env.get(), "t2", 3, rows));
  WriteWholeFile(env.get(), ColumnFilePathFor("t2"),
                 ReadWholeFile(env.get(), ColumnFilePathFor("t")));
  EXPECT_TRUE(LoadTableColumnZones(regrown).status().IsCorruption());
}

/// A seeded table over every column type: 5000 rows (not a multiple of
/// the 64-row zone block), a float column with -0.0 and negatives, and a
/// string column whose 300 distinct values repeat in scrambled order.
Result<Table> MakeMixedTypeTable(Env* env, const std::string& path,
                                 uint64_t rows, uint64_t seed) {
  SKYLINE_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({ColumnDef::Int32("i32"), ColumnDef::Int64("i64"),
                    ColumnDef::Float64("f64"),
                    ColumnDef::FixedString("s", 12)}));
  TableBuilder builder(env, path, schema);
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  Random rng(seed);
  std::vector<char> row(schema.row_width());
  for (uint64_t r = 0; r < rows; ++r) {
    const int32_t i32 = rng.UniformInt32(-1000, 1000);
    const int64_t i64 = static_cast<int64_t>(rng.Next());
    const double f64 = r % 97 == 0 ? -0.0 : rng.Gaussian() * 1e6;
    char s[12] = {};
    std::snprintf(s, sizeof(s), "k%llu",
                  static_cast<unsigned long long>(rng.Uniform(300)));
    std::memcpy(row.data() + schema.offset(0), &i32, sizeof(i32));
    std::memcpy(row.data() + schema.offset(1), &i64, sizeof(i64));
    std::memcpy(row.data() + schema.offset(2), &f64, sizeof(f64));
    std::memcpy(row.data() + schema.offset(3), s, sizeof(s));
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row.data()));
  }
  return builder.Finish();
}

uint64_t BytesHash(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The one-pass writer must produce exactly the bytes of the separate
// column-file and block-index writers, whether it reads the rows from
// memory or from the heap file. The hashes pin the on-disk format: they
// were recorded from the two-pass writers that predate the one-pass one.
TEST(ColumnFile, OnePassSidecarsAreByteIdentical) {
  constexpr uint64_t kColsHash = 0xc9e280ea86d7954aULL;
  constexpr uint64_t kZidxHash = 0x7d6821883fce6850ULL;
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeMixedTypeTable(env.get(), "m", 5000, 17));
  std::vector<char> rows;
  ASSERT_OK(t.ReadAllRows(&rows));

  ASSERT_OK(WriteTableColumnFile(t));
  ASSERT_OK(WriteTableBlockIndex(t));
  const std::string cols = ReadWholeFile(env.get(), ColumnFilePathFor("m"));
  const std::string zidx = ReadWholeFile(env.get(), BlockIndexPathFor("m"));
  EXPECT_EQ(cols.size(), 128728u);
  EXPECT_EQ(zidx.size(), 688u);
  EXPECT_EQ(BytesHash(cols), kColsHash);
  EXPECT_EQ(BytesHash(zidx), kZidxHash);

  const char* const sources[] = {nullptr, rows.data()};
  for (const char* source : sources) {
    ASSERT_OK(env->DeleteFile(ColumnFilePathFor("m")));
    ASSERT_OK(env->DeleteFile(BlockIndexPathFor("m")));
    ASSERT_OK(WriteTableSidecars(t, source));
    EXPECT_EQ(ReadWholeFile(env.get(), ColumnFilePathFor("m")), cols)
        << (source == nullptr ? "scan" : "memory");
    EXPECT_EQ(ReadWholeFile(env.get(), BlockIndexPathFor("m")), zidx)
        << (source == nullptr ? "scan" : "memory");
  }
}

TEST(ColumnFile, SidecarRoundTripsStringDictionaries) {
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table guide, MakeGoodEatsTable(env.get(), "g"));
  ASSERT_OK(SaveTableWithColumns(guide, "g.meta"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> loaded,
                       LoadTableColumnZones(guide));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> scanned,
                       BuildTableColumnZones(guide));
  bool saw_string = false;
  for (size_t c = 0; c < guide.schema().num_columns(); ++c) {
    if (guide.schema().column(c).type != ColumnType::kFixedString) continue;
    saw_string = true;
    ASSERT_NE(loaded->columns[c].dict, nullptr) << c;
    ASSERT_NE(scanned->columns[c].dict, nullptr) << c;
    // Codes are assigned in first-appearance order by both paths, so the
    // reloaded dictionary must literally match the scan's.
    ASSERT_EQ(loaded->columns[c].dict->size(), scanned->columns[c].dict->size());
    for (size_t code = 0; code < scanned->columns[c].dict->size(); ++code) {
      EXPECT_EQ(std::memcmp(
                    loaded->columns[c].dict->Value(static_cast<int32_t>(code)),
                    scanned->columns[c].dict->Value(static_cast<int32_t>(code)),
                    guide.schema().column(c).string_length),
                0);
    }
    EXPECT_EQ(loaded->columns[c].zmin, scanned->columns[c].zmin) << c;
    EXPECT_EQ(loaded->columns[c].zmax, scanned->columns[c].zmax) << c;
  }
  EXPECT_TRUE(saw_string);
}

TEST(TableZoneCache, ServesRepeatedQueriesWithoutRebuilding) {
  TableZoneCache::Instance().Clear();
  auto env = NewMemEnv();
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({i, i % 10});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env.get(), "t", 2, rows));

  bool hit = true;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> first,
                       TableZoneCache::Instance().GetOrLoad(t, &hit));
  EXPECT_FALSE(hit);
  EXPECT_STREQ(first->source, "scan");

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> second,
                       TableZoneCache::Instance().GetOrLoad(t, &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // same object, no rebuild

  TableZoneCache::Instance().Clear();
  EXPECT_EQ(TableZoneCache::Instance().size(), 0u);
}

TEST(TableZoneCache, PrefersColumnFileAndDegradesOnCorruption) {
  TableZoneCache::Instance().Clear();
  auto env = NewMemEnv();
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({i, i % 10});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env.get(), "t", 2, rows));
  ASSERT_OK(WriteTableColumnFile(t));

  bool hit = true;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const TableColumnZones> zones,
                       TableZoneCache::Instance().GetOrLoad(t, &hit));
  EXPECT_FALSE(hit);
  EXPECT_STREQ(zones->source, "column_file");

  // Corrupt sidecar: the cache must fall back to a scan, never error.
  TableZoneCache::Instance().Clear();
  std::string bytes = ReadWholeFile(env.get(), ColumnFilePathFor("t"));
  bytes[bytes.size() - 3] ^= 0x01;
  WriteWholeFile(env.get(), ColumnFilePathFor("t"), bytes);
  ASSERT_OK_AND_ASSIGN(zones, TableZoneCache::Instance().GetOrLoad(t, &hit));
  EXPECT_STREQ(zones->source, "scan");
  TableZoneCache::Instance().Clear();
}

TEST(ZonePrefilter, PresortedInputSkipsDominatedBlocksEndToEnd) {
  TableZoneCache::Instance().Clear();
  auto env = NewMemEnv();
  // Input sorted by descending a0+a1 (a monotone scoring order): one
  // early dominator, then 639 weak rows across 10 zone blocks.
  std::vector<std::vector<int32_t>> rows;
  rows.push_back({100, 100});
  for (int i = 0; i < 639; ++i) rows.push_back({9 - (i * 9) / 639, 9});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env.get(), "t", 2, rows));
  ASSERT_OK(WriteTableColumnFile(t));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(),
                        {{"a0", Directive::kMax}, {"a1", Directive::kMax}}));

  SfsOptions options;
  options.presort = Presort::kNone;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, options, ExecContext(), "s1",
                                                    &stats));
  EXPECT_EQ(sky.row_count(), 1u);
  EXPECT_STREQ(stats.zone_map_source, "column_file");
  EXPECT_EQ(stats.column_file_blocks_read, 10u);
  // Block 0 holds the dominator (window still empty at its boundary);
  // every later block's corner is dominated.
  EXPECT_EQ(stats.table_zone_blocks_pruned, 9u);

  // Second query: zones come from the in-process cache, no file reads.
  SkylineRunStats again;
  ASSERT_OK_AND_ASSIGN(Table sky2, ComputeSkylineSfs(t, spec, options, ExecContext(), "s2",
                                                     &again));
  EXPECT_EQ(sky2.row_count(), 1u);
  EXPECT_STREQ(again.zone_map_source, "cache");
  EXPECT_EQ(again.column_file_blocks_read, 0u);
  EXPECT_EQ(again.table_zone_blocks_pruned, 9u);

  // The counters surface in the versioned run report.
  RunReport report;
  report.tool = "test";
  report.stats = again;
  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("\"table_zone_blocks_pruned\""), std::string::npos);
  EXPECT_NE(json.find("\"zone_map_source\""), std::string::npos);
  TableZoneCache::Instance().Clear();
}

TEST(ZonePrefilter, PruningNeverChangesTheSkyline) {
  TableZoneCache::Instance().Clear();
  auto env = NewMemEnv();
  Random rng(42);
  // Random rows sorted descending by sum — monotone, so Presort::kNone is
  // legal; results with and without zone maps must be byte-identical.
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({rng.UniformInt32(0, 50), rng.UniformInt32(0, 50),
                    rng.UniformInt32(0, 50)});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a[0] + a[1] + a[2] > b[0] + b[1] + b[2];
                   });
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env.get(), "t", 3, rows));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  SfsOptions options;
  options.presort = Presort::kNone;

  SkylineRunStats with_zones;
  ASSERT_OK_AND_ASSIGN(
      Table pruned, ComputeSkylineSfs(t, spec, options, ExecContext(), "p", &with_zones));
  EXPECT_STREQ(with_zones.zone_map_source, "scan");
  const std::vector<char> got = testing_util::ReadAll(pruned);
  EXPECT_EQ(testing_util::RowMultiset(got.data(), pruned.row_count(),
                                      t.schema().row_width()),
            testing_util::OracleSkylineMultiset(t, spec));
  TableZoneCache::Instance().Clear();
}

}  // namespace
}  // namespace skyline
