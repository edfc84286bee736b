#include "sql/engine.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/canonical_order.h"
#include "core/compute_skyline.h"
#include "gtest/gtest.h"
#include "relation/column_store.h"
#include "relation/csv.h"
#include "test_util.h"

namespace skyline {
namespace {

// Engine + Session: the result cache (keying, hit/miss/byte-identity,
// LRU), the maintenance write path (insert patching, delete repair or
// invalidation), and the service guarantee the whole design hangs on —
// a cached response is byte-identical to a cold recompute at the same
// table version, before and after every mutation.

class EngineSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Engine::Options options;
    options.env = env_.get();
    options.write_sidecars = false;
    engine_ = std::make_unique<Engine>(options);
  }

  /// A small table with a known shape: maximizing a and b, c is payload.
  Status CreateDemoTable() {
    return engine_->CreateTableFromCsv("T",
                                       "a,b,c\n"
                                       "5,1,10\n"
                                       "1,5,20\n"
                                       "3,3,30\n"
                                       "2,2,40\n"   // dominated by (3,3)
                                       "1,1,50\n"); // dominated by all
  }

  /// Runs `sql` through a fresh Session and returns the concatenated raw
  /// row bytes (full-width rows).
  Result<std::string> Collect(const std::string& sql,
                              Session::Outcome* outcome = nullptr) {
    Session session(engine_.get());
    std::string bytes;
    SKYLINE_RETURN_IF_ERROR(session.Execute(
        sql,
        [&bytes](const RowView& row) {
          bytes.append(row.data(), row.schema().row_width());
          return Status::OK();
        },
        outcome));
    return bytes;
  }

  /// Cold reference: recomputes the skyline of the table's *current*
  /// version from scratch (no cache) and returns it in canonical order —
  /// what every cached or patched response must match byte for byte.
  Result<std::string> ColdSkyline(
      const std::string& table, const std::vector<Criterion>& criteria,
      const SkylineConstraint& constraint = SkylineConstraint()) {
    SKYLINE_ASSIGN_OR_RETURN(Engine::TableSnapshot snapshot,
                             engine_->Snapshot(table));
    SKYLINE_ASSIGN_OR_RETURN(
        SkylineSpec spec,
        SkylineSpec::Make(snapshot.table->schema(), criteria));
    const std::string path = "cold/ref" + std::to_string(++cold_seq_);
    SkylineComputeOptions options;
    options.constraint = constraint;
    SKYLINE_ASSIGN_OR_RETURN(
        Table result,
        ComputeSkyline(SkylineAlgorithm::kSfs, *snapshot.table, spec,
                       ExecContext(), path, nullptr, options));
    std::vector<char> rows;
    SKYLINE_RETURN_IF_ERROR(result.ReadAllRows(&rows));
    SortSkylineRowsCanonical(spec, &rows);
    return std::string(rows.data(), rows.size());
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  int cold_seq_ = 0;
};

const char kSkylineQuery[] = "SELECT * FROM T SKYLINE OF a MAX, b MAX";
const std::vector<Criterion> kCriteria = {{"a", Directive::kMax},
                                          {"b", Directive::kMax}};

TEST_F(EngineSessionTest, MissThenHitByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome first, second;
  ASSERT_OK_AND_ASSIGN(std::string cold, Collect(kSkylineQuery, &first));
  ASSERT_OK_AND_ASSIGN(std::string warm, Collect(kSkylineQuery, &second));
  EXPECT_TRUE(first.cache_eligible);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.rows_emitted, 3u);
  EXPECT_EQ(warm, cold);
  const Engine::CacheCounters counters = engine_->cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(cold, reference);
}

TEST_F(EngineSessionTest, ConstrainedQueriesKeySeparately) {
  ASSERT_OK(CreateDemoTable());
  const std::string constrained =
      "SELECT * FROM T WHERE a <= 3 SKYLINE OF a MAX, b MAX";
  ASSERT_OK_AND_ASSIGN(std::string full, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string boxed, Collect(constrained));
  EXPECT_NE(full, boxed);  // (5,1) is outside the box
  EXPECT_EQ(engine_->cache_size(), 2u);
  // Both entries serve hits now.
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(std::string boxed2, Collect(constrained, &outcome));
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(boxed2, boxed);
}

TEST_F(EngineSessionTest, ProjectionAndLimitApplyOnCachedPath) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string ignored, Collect(kSkylineQuery));
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(
      std::string projected,
      Collect("SELECT c FROM T SKYLINE OF a MAX, b MAX LIMIT 2", &outcome));
  EXPECT_TRUE(outcome.cache_hit);  // projection/limit do not change the key
  EXPECT_EQ(outcome.rows_emitted, 2u);
  EXPECT_EQ(projected.size(), 2u * sizeof(int32_t));
}

TEST_F(EngineSessionTest, InsertPatchesCachedEntry) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));

  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("INSERT INTO T VALUES (6, 6, 60)", &write));
  EXPECT_TRUE(write.write);
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.version, 2u);
  EXPECT_EQ(write.mutation.entries_patched, 1u);
  EXPECT_EQ(write.mutation.entries_invalidated, 0u);

  // The patched entry serves as a *hit* at the new version and matches a
  // cold recompute byte for byte — (6,6) dominates everything.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_NE(after, before);
  EXPECT_EQ(read.rows_emitted, 1u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
  EXPECT_EQ(engine_->cache_counters().patched, 1u);
}

TEST_F(EngineSessionTest, DominatedInsertKeepsSkylineByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("INSERT INTO T VALUES (1, 1, 70)"));
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(after, before);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, DeleteOfNonMemberPatchesInPlace) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE c = 40", &write));
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.entries_patched, 1u);
  EXPECT_EQ(write.mutation.entries_repaired, 0u);
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(after, before);  // dominated rows never influence the skyline
}

TEST_F(EngineSessionTest, DeleteOfMemberRepairsInline) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE a = 3", &write));
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.entries_patched, 0u);
  EXPECT_EQ(write.mutation.entries_repaired, 1u);
  // (3,3) left the skyline; (2,2) resurfaces — only a recompute over the
  // base data can know that, which is exactly what the repair did.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_NE(after, before);
  EXPECT_EQ(read.rows_emitted, 3u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
  EXPECT_EQ(engine_->cache_counters().repaired, 1u);
}

TEST_F(EngineSessionTest, DeleteOfMemberInvalidatesWhenRepairOff) {
  Engine::Options options;
  options.env = env_.get();
  options.write_sidecars = false;
  options.repair_deletes = false;
  engine_ = std::make_unique<Engine>(options);
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string warmup, Collect(kSkylineQuery));

  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE a = 3", &write));
  EXPECT_EQ(write.mutation.entries_repaired, 0u);
  EXPECT_EQ(write.mutation.entries_invalidated, 1u);
  EXPECT_EQ(engine_->cache_size(), 0u);

  // The next query refills from the new version — still correct.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_FALSE(read.cache_hit);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, LruEvictsAtCapacity) {
  Engine::Options options;
  options.env = env_.get();
  options.write_sidecars = false;
  options.result_cache_capacity = 1;
  engine_ = std::make_unique<Engine>(options);
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string q1, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string q2,
                       Collect("SELECT * FROM T SKYLINE OF a MIN, b MIN"));
  EXPECT_EQ(engine_->cache_size(), 1u);
  EXPECT_EQ(engine_->cache_counters().evictions, 1u);
  // The first query was evicted: it misses again (and stays correct).
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(std::string q1_again, Collect(kSkylineQuery, &outcome));
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(q1_again, q1);
}

TEST_F(EngineSessionTest, OrderByAndResidualPredicatesBypassTheCache) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome ordered;
  ASSERT_OK_AND_ASSIGN(
      std::string rows1,
      Collect("SELECT * FROM T SKYLINE OF a MAX, b MAX ORDER BY c", &ordered));
  EXPECT_FALSE(ordered.cache_eligible);
  // c != 10 cannot push into the constraint box, so the statement runs
  // through the pipeline even though it has a skyline clause.
  Session::Outcome residual;
  ASSERT_OK_AND_ASSIGN(
      std::string rows2,
      Collect("SELECT * FROM T WHERE c != 10 SKYLINE OF a MAX, b MAX",
              &residual));
  EXPECT_FALSE(residual.cache_eligible);
  EXPECT_EQ(engine_->cache_size(), 0u);
}

TEST_F(EngineSessionTest, WritesToUnknownTableFail) {
  ASSERT_OK(CreateDemoTable());
  Session session(engine_.get());
  auto visitor = [](const RowView&) { return Status::OK(); };
  EXPECT_TRUE(session.Execute("INSERT INTO missing VALUES (1)", visitor)
                  .IsNotFound());
  EXPECT_TRUE(session.Execute("DELETE FROM missing", visitor).IsNotFound());
}

TEST_F(EngineSessionTest, InsertRejectsOversizedStringInsteadOfTruncating) {
  // The fixed-string width is inferred from the CSV (here str[2]); an
  // over-long literal must error like a numeric out-of-range does, not
  // silently truncate.
  ASSERT_OK(engine_->CreateTableFromCsv("S", "name,score\naa,1\nbb,2\n"));
  Session session(engine_.get());
  auto visitor = [](const RowView&) { return Status::OK(); };
  Status status =
      session.Execute("INSERT INTO S VALUES ('too-long', 3)", visitor);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot snapshot, engine_->Snapshot("S"));
  EXPECT_EQ(snapshot.version, 1u);
  EXPECT_OK(session.Execute("INSERT INTO S VALUES ('cc', 3)", visitor));
}

TEST_F(EngineSessionTest, MultiRowInsertAndPredicatelessDelete) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome insert;
  ASSERT_OK_AND_ASSIGN(
      std::string empty,
      Collect("INSERT INTO T VALUES (7, 1, 80), (1, 7, 90)", &insert));
  EXPECT_EQ(insert.rows_affected, 2u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  ASSERT_OK_AND_ASSIGN(std::string rows, Collect(kSkylineQuery));
  EXPECT_EQ(rows, reference);

  Session::Outcome del;
  ASSERT_OK_AND_ASSIGN(std::string empty2, Collect("DELETE FROM T", &del));
  EXPECT_EQ(del.rows_affected, 7u);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot snapshot, engine_->Snapshot("T"));
  EXPECT_EQ(snapshot.table->row_count(), 0u);
  EXPECT_EQ(snapshot.version, 3u);
}

TEST_F(EngineSessionTest, DeleteOfMemberBringsBackRowsOnlyItDominated) {
  ASSERT_OK(engine_->CreateTableFromCsv("T",
                                        "a,b,c\n"
                                        "10,10,1\n"  // dominates the next 3
                                        "9,9,2\n"
                                        "8,9,3\n"    // dominated by (9,9)
                                        "9,8,4\n"    // dominated by (9,9)
                                        "12,1,5\n"
                                        "1,12,6\n"
                                        "0,0,7\n"));
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE c = 1", &write));
  EXPECT_EQ(write.mutation.entries_repaired, 1u);
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(read.rows_emitted, 3u);  // (12,1), (1,12) and the risen (9,9)
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, DiffRepairCoversEveryGroupThatLostAMember) {
  ASSERT_OK(engine_->CreateTableFromCsv("T",
                                        "g,a,b\n"
                                        "0,10,10\n"
                                        "0,9,9\n"    // under (10,10) in g 0
                                        "1,10,10\n"
                                        "1,8,8\n"    // under (10,10) in g 1
                                        "2,5,5\n"
                                        "2,4,4\n"));
  const std::string query = "SELECT * FROM T SKYLINE OF g DIFF, a MAX, b MAX";
  const std::vector<Criterion> criteria = {{"g", Directive::kDiff},
                                           {"a", Directive::kMax},
                                           {"b", Directive::kMax}};
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(query));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE a = 10", &write));
  EXPECT_EQ(write.mutation.entries_repaired, 1u);
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(query, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(read.rows_emitted, 3u);  // (0,9,9), (1,8,8), (2,5,5)
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", criteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, DeleteOfMemberWithSurvivingDuplicateStaysPatched) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("INSERT INTO T VALUES (3, 3, 99)"));
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty2,
                       Collect("DELETE FROM T WHERE c = 30", &write));
  EXPECT_EQ(write.mutation.entries_patched, 1u);
  EXPECT_EQ(write.mutation.entries_repaired, 0u);
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(read.rows_emitted, 3u);  // (3,3,99) stands in for (3,3,30)
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

// Delete repair against a seeded table: cached entries of several shapes —
// mixed MIN/MAX criteria over int and float columns, a WHERE box, numeric
// and string DIFF — lose skyline members one DELETE at a time and several
// at once. After every delete each entry must equal a cold ComputeSkyline
// in canonical order, byte for byte.
class EngineRepairTest : public EngineSessionTest,
                         public ::testing::WithParamInterface<bool> {
 protected:
  struct Shape {
    std::string sql;
    std::vector<Criterion> criteria;
    SkylineConstraint constraint;
  };

  // Columns: id 0, a 1, b 2, c 3, g 4, f 5, s 6.
  static std::vector<Shape> Shapes() {
    SkylineConstraint box;
    box.bounds.push_back({1, INT64_MIN, 70});  // a <= 70
    box.bounds.push_back({3, 20, INT64_MAX});  // c >= 20
    return {
        {"SELECT * FROM R SKYLINE OF a MAX, b MIN, f MAX",
         {{"a", Directive::kMax}, {"b", Directive::kMin},
          {"f", Directive::kMax}},
         {}},
        {"SELECT * FROM R WHERE a <= 70 AND c >= 20 "
         "SKYLINE OF a MAX, c MAX, b MAX",
         {{"a", Directive::kMax}, {"c", Directive::kMax},
          {"b", Directive::kMax}},
         box},
        {"SELECT * FROM R SKYLINE OF g DIFF, a MAX, b MAX",
         {{"g", Directive::kDiff}, {"a", Directive::kMax},
          {"b", Directive::kMax}},
         {}},
        {"SELECT * FROM R SKYLINE OF s DIFF, c MIN, f MIN",
         {{"s", Directive::kDiff}, {"c", Directive::kMin},
          {"f", Directive::kMin}},
         {}},
    };
  }

  void SetUp() override {
    EngineSessionTest::SetUp();
    Engine::Options options;
    options.env = env_.get();
    options.write_sidecars = false;
    options.repair_deletes = GetParam();
    engine_ = std::make_unique<Engine>(options);
    Random rng(1717);
    const char* const colors[] = {"red", "green", "blue"};
    std::string csv = "id,a,b,c,g,f,s\n";
    for (int id = 0; id < 400; ++id) {
      char line[96];
      std::snprintf(line, sizeof(line), "%d,%d,%d,%d,%d,%.2f,%s\n", id,
                    static_cast<int>(rng.Uniform(100)),
                    static_cast<int>(rng.Uniform(100)),
                    static_cast<int>(rng.Uniform(100)),
                    static_cast<int>(rng.Uniform(4)),
                    static_cast<double>(rng.Uniform(10000)) / 100.0 - 50.0,
                    colors[rng.Uniform(3)]);
      csv += line;
    }
    ASSERT_OK(engine_->CreateTableFromCsv("R", csv));
    for (const Shape& shape : Shapes()) {
      ASSERT_OK_AND_ASSIGN(std::string warm, Collect(shape.sql));
    }
  }

  /// Every shape's served result equals its cold recompute; with repair on
  /// every one is still a cache hit.
  void ExpectEveryShapeMatchesCold(const std::string& context) {
    for (const Shape& shape : Shapes()) {
      Session::Outcome read;
      ASSERT_OK_AND_ASSIGN(std::string served, Collect(shape.sql, &read));
      ASSERT_OK_AND_ASSIGN(
          std::string reference,
          ColdSkyline("R", shape.criteria, shape.constraint));
      ASSERT_EQ(served, reference) << shape.sql << " after " << context;
      if (GetParam()) {
        EXPECT_TRUE(read.cache_hit) << shape.sql;
      }
    }
  }

  /// id (column 0, int32) of every row `sql` serves.
  std::vector<int32_t> ServedIds(const std::string& sql) {
    std::vector<int32_t> ids;
    Session session(engine_.get());
    Status status = session.Execute(sql, [&ids](const RowView& row) {
      ids.push_back(row.GetInt32(0));
      return Status::OK();
    });
    EXPECT_OK(status);
    return ids;
  }
};

TEST_P(EngineRepairTest, MemberDeletesMatchColdRecompute) {
  const std::vector<Shape> shapes = Shapes();
  Random rng(99);
  uint64_t repaired = 0, invalidated = 0;
  for (int step = 0; step < 24; ++step) {
    const std::vector<int32_t> members =
        ServedIds(shapes[step % shapes.size()].sql);
    ASSERT_FALSE(members.empty());
    const int32_t victim = members[rng.Uniform(members.size())];
    Session::Outcome write;
    ASSERT_OK_AND_ASSIGN(
        std::string empty,
        Collect("DELETE FROM R WHERE id = " + std::to_string(victim), &write));
    ASSERT_EQ(write.rows_affected, 1u);
    repaired += write.mutation.entries_repaired;
    invalidated += write.mutation.entries_invalidated;
    ExpectEveryShapeMatchesCold("deleting id " + std::to_string(victim));
  }
  if (GetParam()) {
    EXPECT_GE(repaired, 24u);  // each step removed a member of its shape
    EXPECT_EQ(invalidated, 0u);
  } else {
    EXPECT_EQ(repaired, 0u);
    EXPECT_GE(invalidated, 24u);
  }
}

TEST_P(EngineRepairTest, OneDeleteRemovingSeveralMembers) {
  const std::string mixed = Shapes()[0].sql;  // a MAX leads
  size_t doomed = 0;
  Session session(engine_.get());
  ASSERT_OK(session.Execute(mixed, [&doomed](const RowView& row) {
    if (row.GetInt32(1) >= 95) ++doomed;
    return Status::OK();
  }));
  ASSERT_GE(doomed, 2u);
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM R WHERE a >= 95", &write));
  EXPECT_GT(write.rows_affected, doomed);
  if (GetParam()) {
    EXPECT_GE(write.mutation.entries_repaired, 1u);
  } else {
    EXPECT_GE(write.mutation.entries_invalidated, 1u);
  }
  ExpectEveryShapeMatchesCold("DELETE WHERE a >= 95");
}

INSTANTIATE_TEST_SUITE_P(RepairDeletes, EngineRepairTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Repair" : "Invalidate";
                         });

// The service guarantee under concurrency: N sessions issue a mix of
// reads and writes against one table; after every mutation batch the
// writer verifies the served (cached or patched) result is byte-identical
// to a cold ComputeSkyline of the current version. Readers continuously
// hit the cache while mutations rotate the version underneath them.
TEST_F(EngineSessionTest, ConcurrentMixedReadWriteStaysByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  constexpr int kReaders = 4;
  constexpr int kBatches = 12;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads_ok{0};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, &done, &reads_ok, &reader_failed] {
      Session session(engine_.get());
      while (!done.load(std::memory_order_acquire)) {
        uint64_t rows = 0;
        Status status = session.Execute(kSkylineQuery,
                                        [&rows](const RowView&) {
                                          ++rows;
                                          return Status::OK();
                                        });
        if (!status.ok() || rows == 0) {
          reader_failed.store(true);
          return;
        }
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Random rng(4242);
  Session writer(engine_.get());
  auto swallow = [](const RowView&) { return Status::OK(); };
  for (int batch = 0; batch < kBatches && !reader_failed.load(); ++batch) {
    if (batch % 3 == 2) {
      // Delete a random band of payload values; sometimes a member dies
      // and the repair path recomputes the cached entries.
      const int lo = static_cast<int>(rng.Uniform(100));
      std::string sql = "DELETE FROM T WHERE c >= " + std::to_string(lo) +
                        " AND c <= " + std::to_string(lo + 20);
      ASSERT_OK(writer.Execute(sql, swallow));
    } else {
      std::string sql = "INSERT INTO T VALUES";
      for (int i = 0; i < 3; ++i) {
        sql += (i == 0 ? " (" : ", (") + std::to_string(rng.Uniform(50)) +
               ", " + std::to_string(rng.Uniform(50)) + ", " +
               std::to_string(rng.Uniform(100)) + ")";
      }
      ASSERT_OK(writer.Execute(sql, swallow));
    }
    // The mutation is published: the served skyline at this instant must
    // equal a cold recompute of the current version, byte for byte.
    ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
    ASSERT_OK_AND_ASSIGN(std::string served, Collect(kSkylineQuery));
    ASSERT_EQ(served, reference) << "batch " << batch;
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(reads_ok.load(), 0u);
  const Engine::CacheCounters counters = engine_->cache_counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.patched + counters.repaired + counters.invalidations,
            0u);
}

// Version reclamation, on a real directory so the test can list exactly
// what a run leaves behind.
class EngineReclaimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "engine_reclaim_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    env_ = NewPosixEnv();
    Engine::Options options;
    options.env = env_.get();
    options.data_prefix = dir_;
    engine_ = std::make_unique<Engine>(options);
  }

  void TearDown() override {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::set<std::string> FilesInDir() const {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }

  /// Alternates inserts and deletes of fresh rows, with a cached skyline
  /// patched (or repaired) across every write.
  void Write(int count) {
    Session session(engine_.get());
    auto swallow = [](const RowView&) { return Status::OK(); };
    for (int i = 0; i < count; ++i, ++writes_) {
      const std::string sql =
          writes_ % 2 == 0
              ? "INSERT INTO T VALUES (" + std::to_string(writes_ % 7) + ", " +
                    std::to_string(6 - writes_ % 7) + ", " +
                    std::to_string(100 + writes_) + ")"
              : "DELETE FROM T WHERE c = " + std::to_string(99 + writes_);
      ASSERT_OK(session.Execute(sql, swallow));
      ASSERT_OK(session.Execute(kSkylineQuery, swallow));
    }
  }

  std::string dir_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  int writes_ = 0;
};

TEST_F(EngineReclaimTest, WritesLeaveOnlyTheCurrentVersionsFiles) {
  ASSERT_OK(engine_->CreateTableFromCsv("T", "a,b,c\n5,1,10\n1,5,20\n"));
  Write(50);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot current, engine_->Snapshot("T"));
  EXPECT_EQ(current.version, 51u);
  const std::set<std::string> expected = {"T.v51", "T.v51.cols",
                                          "T.v51.zidx"};
  EXPECT_EQ(FilesInDir(), expected);
  current.table.reset();
  // Destroying the engine keeps the current version.
  engine_.reset();
  EXPECT_EQ(FilesInDir(), expected);
}

TEST_F(EngineReclaimTest, HeldSnapshotStaysReadableUntilReleased) {
  ASSERT_OK(engine_->CreateTableFromCsv("T", "a,b,c\n5,1,10\n1,5,20\n"));
  Write(1);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot held, engine_->Snapshot("T"));
  const std::string path = held.table->path();
  std::vector<char> before;
  ASSERT_OK(held.table->ReadAllRows(&before));
  Write(3);
  for (const std::string& file :
       {path, ColumnFilePathFor(path), BlockIndexPathFor(path)}) {
    EXPECT_TRUE(env_->FileExists(file)) << file;
  }
  std::vector<char> after;
  ASSERT_OK(held.table->ReadAllRows(&after));
  EXPECT_EQ(after, before);
  held.table.reset();
  for (const std::string& file :
       {path, ColumnFilePathFor(path), BlockIndexPathFor(path)}) {
    EXPECT_FALSE(env_->FileExists(file)) << file;
  }
  EXPECT_EQ(FilesInDir().size(), 3u);  // the current version's files
}

TEST_F(EngineReclaimTest, RebindNeverWritesOverAHeldVersion) {
  ASSERT_OK(engine_->CreateTableFromCsv("T", "a,b,c\n5,1,10\n1,5,20\n"));
  Write(1);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot held, engine_->Snapshot("T"));
  EXPECT_EQ(held.table->path(), dir_ + "/T.v2");
  // A new binding of the name reaches version 2 while the old one's
  // version 2 is still held: it must get a path of its own.
  ASSERT_OK(engine_->CreateTableFromCsv("T", "a,b,c\n7,7,70\n"));
  writes_ = 0;
  Write(1);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot current, engine_->Snapshot("T"));
  EXPECT_EQ(current.version, 2u);
  EXPECT_NE(current.table->path(), held.table->path());
  held.table.reset();  // deletes the old binding's files only
  std::vector<char> rows;
  ASSERT_OK(current.table->ReadAllRows(&rows));
  EXPECT_EQ(rows.size(), 2 * current.table->schema().row_width());
  const std::set<std::string> expected = {"T.v2-1", "T.v2-1.cols",
                                          "T.v2-1.zidx"};
  EXPECT_EQ(FilesInDir(), expected);
}

TEST_F(EngineReclaimTest, CallerTablesAreNeverDeleted) {
  const std::string base = dir_ + "/caller_table";
  ASSERT_OK_AND_ASSIGN(Table table,
                       CsvToTable(env_.get(), base, "a,b,c\n5,1,10\n"));
  ASSERT_OK(engine_->CreateTable("T", std::move(table)));
  Write(4);
  EXPECT_TRUE(env_->FileExists(base));
  // Rebinding the name supersedes the engine's own current version.
  ASSERT_OK_AND_ASSIGN(Table again,
                       CsvToTable(env_.get(), base + "2", "a,b,c\n1,1,1\n"));
  ASSERT_OK(engine_->CreateTable("T", std::move(again)));
  const std::set<std::string> expected = {
      "caller_table", "caller_table.cols", "caller_table.zidx",
      "caller_table2", "caller_table2.cols", "caller_table2.zidx"};
  EXPECT_EQ(FilesInDir(), expected);
}

}  // namespace
}  // namespace skyline
