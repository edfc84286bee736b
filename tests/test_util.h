#ifndef SKYLINE_TESTS_TEST_UTIL_H_
#define SKYLINE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/divide_conquer.h"
#include "baselines/less.h"
#include "baselines/naive.h"
#include "common/random.h"
#include "core/skyline.h"
#include "env/env.h"
#include "gtest/gtest.h"

namespace skyline {
namespace testing_util {

/// gtest helpers for Status / Result.
#define ASSERT_OK(expr)                                     \
  do {                                                      \
    const ::skyline::Status _st = (expr);                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    const ::skyline::Status _st = (expr);                   \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                     \
  ASSERT_OK_AND_ASSIGN_IMPL_(                               \
      SKYLINE_STATUS_CONCAT_(_res_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)          \
  auto tmp = (expr);                                        \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();         \
  lhs = std::move(tmp).value()

/// Builds a small table of int32 attribute rows (schema a0..a{k-1}, no
/// payload) from a row-major value list. The table lives in `env`.
Result<Table> MakeIntTable(Env* env, const std::string& path, int num_attrs,
                           const std::vector<std::vector<int32_t>>& rows);

/// Reads every row of `table` into a dense buffer.
std::vector<char> ReadAll(const Table& table);

/// Multiset of the rows' projections onto the spec's skyline attributes,
/// encoded as byte strings — used to compare algorithm outputs order-
/// insensitively (payloads of equivalent tuples may legitimately differ in
/// *membership order* but the attribute multiset must match exactly).
std::multiset<std::string> ProjectedMultiset(const SkylineSpec& spec,
                                             const char* rows, uint64_t count,
                                             size_t row_width);

/// Full-row multiset (byte-exact), order-insensitive.
std::multiset<std::string> RowMultiset(const char* rows, uint64_t count,
                                       size_t row_width);

/// Computes the naive-oracle skyline of `table` and returns its full-row
/// multiset.
std::multiset<std::string> OracleSkylineMultiset(const Table& table,
                                                 const SkylineSpec& spec);

/// Generator shorthand: uniform-independent int32 table.
Result<Table> MakeUniformTable(Env* env, const std::string& path, uint64_t n,
                               int num_attrs, uint64_t seed,
                               size_t payload_bytes = 12);

}  // namespace testing_util
}  // namespace skyline

#endif  // SKYLINE_TESTS_TEST_UTIL_H_
