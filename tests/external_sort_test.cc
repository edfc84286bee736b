#include "sort/external_sort.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "core/scoring.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::ReadAll;

/// Reads all int32 values of a single-int32-column heap file.
std::vector<int32_t> ReadInts(Env* env, const std::string& path) {
  HeapFileReader reader(env, path, 4, nullptr);
  SKYLINE_CHECK_OK(reader.Open());
  std::vector<int32_t> out;
  while (const char* rec = reader.Next()) {
    int32_t v;
    std::memcpy(&v, rec, 4);
    out.push_back(v);
  }
  return out;
}

class ExternalSortTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(ExternalSortTest, SingleRunFitsInBuffer) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 1, {{5}, {2}, {9}, {1}, {7}}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(std::string sorted,
                       SortHeapFile(env_.get(), &tmp, "t", 4, ord,
                                    SortOptions{}, ExecContext(), &stats));
  EXPECT_EQ(ReadInts(env_.get(), sorted),
            (std::vector<int32_t>{1, 2, 5, 7, 9}));
  EXPECT_EQ(stats.runs_generated, 1u);
  EXPECT_EQ(stats.merge_levels, 0u);
}

TEST_F(ExternalSortTest, MultiRunMerge) {
  // 1024 int32 records per page; 3 buffer pages => runs of 3072.
  std::vector<std::vector<int32_t>> rows;
  Random rng(5);
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({rng.UniformInt32()});
  }
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, rows));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortOptions opts;
  opts.buffer_pages = 3;
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, opts, ExecContext(), &stats));
  std::vector<int32_t> got = ReadInts(env_.get(), sorted);
  ASSERT_EQ(got.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(stats.runs_generated, 1u);
  EXPECT_GE(stats.merge_levels, 1u);
  EXPECT_GT(stats.io.pages_written, 0u);

  // Multiset preserved.
  std::vector<int32_t> want;
  for (const auto& r : rows) want.push_back(r[0]);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(ExternalSortTest, MultiLevelMergeWithTinyFanIn) {
  std::vector<std::vector<int32_t>> rows;
  Random rng(6);
  for (int i = 0; i < 40000; ++i) rows.push_back({rng.UniformInt32()});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, rows));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortOptions opts;
  opts.buffer_pages = 3;  // fan-in 2 => multiple merge levels
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, opts, ExecContext(), &stats));
  std::vector<int32_t> got = ReadInts(env_.get(), sorted);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(stats.merge_levels, 1u);
}

TEST_F(ExternalSortTest, DescendingOrder) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeIntTable(env_.get(), "t", 1, {{3}, {1}, {2}}));
  LexicographicOrdering ord(&t.schema(), {{0, true}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_EQ(ReadInts(env_.get(), sorted), (std::vector<int32_t>{3, 2, 1}));
}

TEST_F(ExternalSortTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, {}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_TRUE(ReadInts(env_.get(), sorted).empty());
}

TEST_F(ExternalSortTest, DuplicateKeysPreserved) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 1, {{2}, {2}, {1}, {2}, {1}}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_EQ(ReadInts(env_.get(), sorted),
            (std::vector<int32_t>{1, 1, 2, 2, 2}));
}

TEST_F(ExternalSortTest, KeyFastPathMatchesComparatorPath) {
  // Sort the same data with the entropy ordering (prefix-key path) at two
  // buffer sizes: one-run in-memory vs multi-run external; results must
  // agree on the key sequence, descending in Key() and ascending in the
  // prefix key the sorter actually orders by.
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 5000, 3, 17, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  EntropyOrdering ord(&spec, t);
  ASSERT_TRUE(ord.has_key());

  TempFileManager tmp(env_.get(), "tmp");
  SortOptions big;  // single run
  ASSERT_OK_AND_ASSIGN(std::string s1,
                       SortHeapFile(env_.get(), &tmp, "t",
                                    t.schema().row_width(), ord, big, ExecContext(), nullptr));
  SortOptions small;
  small.buffer_pages = 3;
  SortStats small_stats;
  ASSERT_OK_AND_ASSIGN(
      std::string s2, SortHeapFile(env_.get(), &tmp, "t",
                                   t.schema().row_width(), ord, small,
                                   ExecContext(), &small_stats));

  auto keys_of = [&](const std::string& path) {
    HeapFileReader reader(env_.get(), path, t.schema().row_width(), nullptr);
    SKYLINE_CHECK_OK(reader.Open());
    std::vector<double> keys;
    std::vector<uint64_t> prefixes;
    while (const char* rec = reader.Next()) {
      keys.push_back(ord.Key(rec));
      prefixes.push_back(ord.PrefixKey(rec));
    }
    return std::make_pair(keys, prefixes);
  };
  auto [k1, p1] = keys_of(s1);
  auto [k2, p2] = keys_of(s2);
  ASSERT_EQ(k1.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(k1.rbegin(), k1.rend()));
  EXPECT_EQ(k1, k2);
  EXPECT_TRUE(std::is_sorted(p1.begin(), p1.end()));
  EXPECT_EQ(p1, p2);
  // The multi-run sort carried its prefixes in key streams: one key per
  // record written by run formation, read back by the merges.
  EXPECT_GT(small_stats.runs_generated, 1u);
  EXPECT_GT(small_stats.key_io.pages_written, 0u);
  EXPECT_GT(small_stats.key_io.pages_read, 0u);
}

TEST_F(ExternalSortTest, SortIsTopologicalForDominance) {
  // Theorem 7: after a nested skyline sort, no tuple dominates an earlier
  // tuple.
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 500, 3, 23, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMin}}));
  auto ord = MakeNestedSkylineOrdering(spec);
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", t.schema().row_width(), *ord,
                   SortOptions{}, ExecContext(), nullptr));
  HeapFileReader reader(env_.get(), sorted, t.schema().row_width(), nullptr);
  ASSERT_OK(reader.Open());
  std::vector<char> rows;
  while (const char* rec = reader.Next()) {
    rows.insert(rows.end(), rec, rec + t.schema().row_width());
  }
  const size_t width = t.schema().row_width();
  const uint64_t n = rows.size() / width;
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_FALSE(Dominates(spec, rows.data() + j * width,
                             rows.data() + i * width))
          << "tuple " << j << " dominates earlier tuple " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Sorter contract: the output is exactly std::stable_sort of the input
// under the ordering's Compare, for every ordering, buffer size and thread
// count.

/// A table with heavy ties: small-domain int32/int64, a float64 column
/// holding -0.0, +0.0, NaNs and infinities, a 4-value string, a constant
/// column, and a row id outside every ordering (so a stability break shows
/// in the bytes). Every ninth row is an exact copy of an earlier row.
Result<Table> MakeTieTable(Env* env, const std::string& path, uint64_t n,
                           uint64_t seed) {
  SKYLINE_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({ColumnDef::Int32("a"), ColumnDef::Int64("b"),
                    ColumnDef::Float64("c"), ColumnDef::FixedString("s", 6),
                    ColumnDef::Int32("k"), ColumnDef::Int32("id")}));
  const double kDoubles[] = {-0.0,
                             0.0,
                             1.5,
                             -2.25,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  const char* kStrings[] = {"apple", "fig", "kiwi", "pear"};
  const int64_t kInt64s[] = {-(int64_t{1} << 62), -1, 0, 3,
                             int64_t{1} << 62};
  TableBuilder builder(env, path, schema);
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  Random rng(seed);
  std::vector<char> rows;
  const size_t width = schema.row_width();
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<char> row(width, 0);
    if (i % 9 == 8) {
      const uint64_t src = rng.Uniform(i);
      std::memcpy(row.data(), rows.data() + src * width, width);
    } else {
      const int32_t a = static_cast<int32_t>(rng.Uniform(12)) - 6;
      const int64_t b = kInt64s[rng.Uniform(5)];
      const double c = kDoubles[rng.Uniform(8)];
      const int32_t k = 7;
      const int32_t id = static_cast<int32_t>(i);
      std::memcpy(row.data() + schema.offset(0), &a, 4);
      std::memcpy(row.data() + schema.offset(1), &b, 8);
      std::memcpy(row.data() + schema.offset(2), &c, 8);
      const char* str = kStrings[rng.Uniform(4)];
      std::memcpy(row.data() + schema.offset(3), str, std::strlen(str));
      std::memcpy(row.data() + schema.offset(4), &k, 4);
      std::memcpy(row.data() + schema.offset(5), &id, 4);
    }
    rows.insert(rows.end(), row.begin(), row.end());
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row.data()));
  }
  return builder.Finish();
}

class ExternalSortContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = MakeTieTable(env_.get(), "ties", 6000, 31);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    table_.emplace(std::move(t).value());
    auto no_diff = SkylineSpec::Make(
        table_->schema(),
        {{"a", Directive::kMax}, {"b", Directive::kMin},
         {"k", Directive::kMax}});
    ASSERT_TRUE(no_diff.ok());
    no_diff_.emplace(std::move(no_diff).value());
    auto with_diff = SkylineSpec::Make(
        table_->schema(),
        {{"s", Directive::kDiff}, {"a", Directive::kMin},
         {"b", Directive::kMax}});
    ASSERT_TRUE(with_diff.ok());
    with_diff_.emplace(std::move(with_diff).value());
  }

  /// Sorts the table under `ord` with every buffer size and thread count
  /// and checks each output byte-for-byte against std::stable_sort.
  void ExpectStableSort(const RowOrdering& ord, const std::string& label) {
    const size_t width = table_->schema().row_width();
    std::vector<char> input = ReadAll(*table_);
    const uint64_t n = table_->row_count();
    std::vector<uint64_t> order(n);
    for (uint64_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](uint64_t x, uint64_t y) {
      return ord.Compare(input.data() + x * width, input.data() + y * width) <
             0;
    });
    std::vector<char> want;
    want.reserve(input.size());
    for (uint64_t i : order) {
      want.insert(want.end(), input.begin() + i * width,
                  input.begin() + (i + 1) * width);
    }
    for (size_t pages : {size_t{3}, size_t{4}, size_t{1000}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        TempFileManager tmp(env_.get(), "contract_tmp");
        SortOptions opts;
        opts.buffer_pages = pages;
        ExecContext ctx;
        ctx.threads = threads;
        SortStats stats;
        auto sorted = SortHeapFile(env_.get(), &tmp, table_->path(), width,
                                   ord, opts, ctx, &stats);
        ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
        HeapFileReader reader(env_.get(), sorted.value(), width, nullptr);
        ASSERT_OK(reader.Open());
        std::vector<char> got;
        while (const char* rec = reader.Next()) {
          got.insert(got.end(), rec, rec + width);
        }
        ASSERT_OK(reader.status());
        EXPECT_TRUE(got == want)
            << label << ": buffer_pages " << pages << ", threads " << threads;
        if (pages < 1000) {
          EXPECT_GT(stats.merge_levels, 1u) << label;
        }
      }
    }
  }

  std::unique_ptr<Env> env_ = NewMemEnv();
  std::optional<Table> table_;
  std::optional<SkylineSpec> no_diff_;
  std::optional<SkylineSpec> with_diff_;
};

TEST_F(ExternalSortContractTest, EntropyWithoutDiff) {
  EntropyOrdering ord(&*no_diff_, *table_);
  ASSERT_TRUE(ord.has_key());
  ExpectStableSort(ord, "entropy");
}

TEST_F(ExternalSortContractTest, EntropyWithDiff) {
  EntropyOrdering ord(&*with_diff_, *table_);
  ASSERT_FALSE(ord.has_key());
  ExpectStableSort(ord, "entropy+diff");
}

TEST_F(ExternalSortContractTest, NestedOverEveryColumnType) {
  const Schema& schema = table_->schema();
  // Leading int32 pair (both packed), int32 then int64, int64, float64
  // with -0.0/NaN, and a string first (no packed prefix at all).
  const std::vector<std::vector<SortKey>> nestings = {
      {{4, false}, {0, true}, {1, false}},
      {{0, false}, {1, true}},
      {{1, true}, {2, false}},
      {{2, true}, {3, false}},
      {{2, false}, {0, true}},
      {{3, false}, {2, true}},
  };
  for (size_t i = 0; i < nestings.size(); ++i) {
    LexicographicOrdering ord(&schema, nestings[i]);
    ExpectStableSort(ord, "nested #" + std::to_string(i));
  }
}

TEST_F(ExternalSortContractTest, ReverseOrdering) {
  EntropyOrdering entropy(&*no_diff_, *table_);
  ReverseOrdering reverse_entropy(&entropy);
  ExpectStableSort(reverse_entropy, "reverse entropy");
  LexicographicOrdering nested(&table_->schema(), {{0, false}, {2, true}});
  ReverseOrdering reverse_nested(&nested);
  ExpectStableSort(reverse_nested, "reverse nested");
}

}  // namespace
}  // namespace skyline
