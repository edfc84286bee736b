#include "core/maintenance.h"

#include <set>

#include "baselines/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema =
        Schema::Make({ColumnDef::Int32("a0"), ColumnDef::Int32("a1")});
    ASSERT_TRUE(schema.ok());
    schema_ = std::move(schema).value();
    auto spec = SkylineSpec::Make(
        schema_, {{"a0", Directive::kMax}, {"a1", Directive::kMax}});
    ASSERT_TRUE(spec.ok());
    spec_.emplace(std::move(spec).value());
  }

  std::vector<char> Row(int32_t a, int32_t b) {
    std::vector<char> row(8);
    std::memcpy(row.data(), &a, 4);
    std::memcpy(row.data() + 4, &b, 4);
    return row;
  }

  Schema schema_;
  std::optional<SkylineSpec> spec_;
};

TEST_F(MaintenanceTest, InsertBuildsSkyline) {
  SkylineMaintainer m(&*spec_);
  EXPECT_EQ(m.Insert(Row(2, 2).data()), SkylineMaintainer::InsertResult::kAdded);
  EXPECT_EQ(m.Insert(Row(1, 1).data()),
            SkylineMaintainer::InsertResult::kDominated);
  EXPECT_EQ(m.Insert(Row(4, 1).data()), SkylineMaintainer::InsertResult::kAdded);
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(MaintenanceTest, DominatingInsertEvicts) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(2, 2).data());
  m.Insert(Row(1, 4).data());
  // (5,5) trumps everything — the paper's "single insertion invalidates
  // the index" case, handled in one O(|skyline|) pass.
  EXPECT_EQ(m.Insert(Row(5, 5).data()),
            SkylineMaintainer::InsertResult::kAddedEvicted);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.evictions(), 2u);
}

TEST_F(MaintenanceTest, EquivalentsBothKept) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(3, 3).data());
  EXPECT_EQ(m.Insert(Row(3, 3).data()),
            SkylineMaintainer::InsertResult::kAdded);
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(MaintenanceTest, RemoveNonMemberIsFree) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(5, 5).data());
  EXPECT_EQ(m.Remove(Row(1, 1).data()),
            SkylineMaintainer::RemoveResult::kNotMember);
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(MaintenanceTest, RemoveMemberFlagsRecompute) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(5, 5).data());
  m.Insert(Row(1, 9).data());
  EXPECT_EQ(m.Remove(Row(5, 5).data()),
            SkylineMaintainer::RemoveResult::kMemberRemovedRecomputeNeeded);
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(MaintenanceTest, RemoveDuplicateMemberStaysExact) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(5, 5).data());
  m.Insert(Row(5, 5).data());
  EXPECT_EQ(m.Remove(Row(5, 5).data()),
            SkylineMaintainer::RemoveResult::kDuplicateMemberRemoved);
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(MaintenanceTest, RandomInsertStreamMatchesOracle) {
  auto env = NewMemEnv();
  for (uint64_t seed : {701u, 702u, 703u}) {
    auto t = MakeUniformTable(env.get(), "t" + std::to_string(seed), 1500, 4,
                              seed, 0);
    ASSERT_TRUE(t.ok());
    std::vector<Criterion> criteria;
    for (int i = 0; i < 4; ++i) {
      criteria.push_back({"a" + std::to_string(i), Directive::kMax});
    }
    auto spec = SkylineSpec::Make(t->schema(), criteria);
    ASSERT_TRUE(spec.ok());
    SkylineMaintainer m(&*spec);
    std::vector<char> rows = ReadAll(*t);
    const size_t w = t->schema().row_width();
    for (uint64_t i = 0; i < t->row_count(); ++i) {
      m.Insert(rows.data() + i * w);
    }
    std::multiset<std::string> maintained;
    for (size_t i = 0; i < m.size(); ++i) {
      maintained.emplace(m.MemberAt(i), w);
    }
    EXPECT_EQ(maintained, testing_util::OracleSkylineMultiset(*t, *spec))
        << "seed " << seed;
  }
}

TEST_F(MaintenanceTest, InsertAfterMemberRemovalStillSound) {
  // After a member removal the set is a subset of the true skyline; new
  // inserts must still behave (never produce dominated members).
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(5, 5).data());
  m.Insert(Row(9, 1).data());
  m.Remove(Row(5, 5).data());
  m.Insert(Row(2, 2).data());  // would have been dominated by (5,5)
  m.Insert(Row(3, 3).data());
  // Members must be mutually non-dominating.
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t j = 0; j < m.size(); ++j) {
      EXPECT_FALSE(Dominates(*spec_, m.MemberAt(i), m.MemberAt(j)));
    }
  }
}

TEST_F(MaintenanceTest, SeedAdoptsComputedSkylineVerbatim) {
  // Seed() trusts the caller's rows (a previously computed skyline) and
  // adopts them without dominance checks — the bulk path the engine's
  // result cache uses when it patches an entry.
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(1, 1).data());  // replaced by the seed below
  std::vector<char> skyline;
  for (const auto& row : {Row(9, 1), Row(5, 5), Row(1, 9)}) {
    skyline.insert(skyline.end(), row.begin(), row.end());
  }
  m.Seed(skyline.data(), 3);
  ASSERT_EQ(m.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(m.MemberAt(i), skyline.data() + i * 8, 8), 0);
  }
  // The seeded set behaves: a dominating insert evicts, a dominated one
  // bounces, membership removal is detected.
  EXPECT_EQ(m.Insert(Row(6, 6).data()),
            SkylineMaintainer::InsertResult::kAddedEvicted);
  EXPECT_EQ(m.Insert(Row(2, 2).data()),
            SkylineMaintainer::InsertResult::kDominated);
  EXPECT_EQ(m.Remove(Row(9, 1).data()),
            SkylineMaintainer::RemoveResult::kMemberRemovedRecomputeNeeded);
}

TEST_F(MaintenanceTest, SeedReplacesAndClearsPriorMembers) {
  SkylineMaintainer m(&*spec_);
  m.Insert(Row(9, 9).data());
  m.Seed(nullptr, 0);  // empty seed: a fresh maintainer
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Insert(Row(1, 1).data()),
            SkylineMaintainer::InsertResult::kAdded);
}

TEST_F(MaintenanceTest, FromComputedSkylineMatchesInsertBuild) {
  auto env = NewMemEnv();
  auto t = MakeUniformTable(env.get(), "t", 800, 3, 811, 0);
  ASSERT_TRUE(t.ok());
  std::vector<Criterion> criteria;
  for (int i = 0; i < 3; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto spec = SkylineSpec::Make(t->schema(), criteria);
  ASSERT_TRUE(spec.ok());
  const size_t w = t->schema().row_width();

  // Build one maintainer by streaming inserts, then adopt its members
  // into a second via FromComputedSkyline: both must behave identically
  // against the same follow-up mutation.
  SkylineMaintainer streamed(&*spec);
  std::vector<char> rows = ReadAll(*t);
  for (uint64_t i = 0; i < t->row_count(); ++i) {
    streamed.Insert(rows.data() + i * w);
  }
  std::vector<char> members;
  for (size_t i = 0; i < streamed.size(); ++i) {
    members.insert(members.end(), streamed.MemberAt(i),
                   streamed.MemberAt(i) + w);
  }
  SkylineMaintainer adopted = SkylineMaintainer::FromComputedSkyline(
      &*spec, members.data(), streamed.size());
  ASSERT_EQ(adopted.size(), streamed.size());

  std::vector<char> dominator(w, 0);
  const int32_t big = INT32_MAX;
  for (int i = 0; i < 3; ++i) {
    std::memcpy(dominator.data() + i * 4, &big, 4);
  }
  EXPECT_EQ(streamed.Insert(dominator.data()),
            SkylineMaintainer::InsertResult::kAddedEvicted);
  EXPECT_EQ(adopted.Insert(dominator.data()),
            SkylineMaintainer::InsertResult::kAddedEvicted);
  EXPECT_EQ(streamed.size(), adopted.size());
  EXPECT_EQ(streamed.size(), 1u);
}

TEST_F(MaintenanceTest, DiffGroupsMaintainedIndependently) {
  auto schema = Schema::Make({ColumnDef::Int32("g"), ColumnDef::Int32("v")});
  ASSERT_TRUE(schema.ok());
  auto spec = SkylineSpec::Make(
      schema.value(), {{"g", Directive::kDiff}, {"v", Directive::kMax}});
  ASSERT_TRUE(spec.ok());
  SkylineMaintainer m(&spec.value());
  auto row = [&](int32_t g, int32_t v) {
    std::vector<char> r(8);
    std::memcpy(r.data(), &g, 4);
    std::memcpy(r.data() + 4, &v, 4);
    return r;
  };
  m.Insert(row(1, 5).data());
  m.Insert(row(2, 3).data());  // different group: incomparable
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.Insert(row(1, 9).data()),
            SkylineMaintainer::InsertResult::kAddedEvicted);
  EXPECT_EQ(m.size(), 2u);  // (1,9) evicted (1,5); (2,3) untouched
}

}  // namespace
}  // namespace skyline
