#include "relation/dictionary.h"

#include <cstdio>
#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace skyline {
namespace {

constexpr size_t kWidth = 16;

/// Distinct fixed-width values, zero padded.
std::string ValueFor(size_t i) {
  char buf[kWidth] = {};
  std::snprintf(buf, sizeof(buf), "v%zu", i);
  return std::string(buf, kWidth);
}

/// Every value lands in the same bucket: each lookup walks the whole
/// probe chain and must still resolve by value equality.
struct ConstantHash {
  uint64_t operator()(const char*, size_t) const { return 42; }
};

/// Only a handful of distinct buckets: long, interleaved probe chains.
struct FewBucketsHash {
  uint64_t operator()(const char* bytes, size_t n) const {
    return static_cast<unsigned char>(bytes[n / 2]) % 4;
  }
};

template <typename Dictionary>
void ExpectRoundTrips(size_t n) {
  Dictionary dict(kWidth);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dict.Encode(ValueFor(i).data()), static_cast<int32_t>(i));
  }
  ASSERT_EQ(dict.size(), n);
  // Re-encoding never assigns a new code; codes stay in discovery order.
  for (size_t i = 0; i < n; i += 7) {
    EXPECT_EQ(dict.Encode(ValueFor(i).data()), static_cast<int32_t>(i));
  }
  EXPECT_EQ(dict.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const std::string value = ValueFor(i);
    ASSERT_EQ(dict.Find(value.data()), static_cast<int32_t>(i));
    ASSERT_EQ(std::string(dict.Value(static_cast<int32_t>(i)), kWidth), value);
  }
  EXPECT_EQ(dict.probe_hits(), n);
  for (size_t i = n; i < n + 100; ++i) {
    EXPECT_EQ(dict.Find(ValueFor(i).data()), Dictionary::kNoCode);
  }
  EXPECT_EQ(dict.probe_misses(), 100u);
  EXPECT_EQ(dict.size(), n);  // probes never insert

  // The persisted blob rebuilds the same code assignment.
  const Dictionary reloaded =
      Dictionary::FromValues(kWidth, dict.SerializedValues());
  ASSERT_EQ(reloaded.size(), n);
  EXPECT_EQ(reloaded.SerializedValues(), dict.SerializedValues());
  for (size_t i = 0; i < n; i += 3) {
    ASSERT_EQ(reloaded.Find(ValueFor(i).data()), static_cast<int32_t>(i));
  }
  EXPECT_EQ(reloaded.Find(ValueFor(n).data()), Dictionary::kNoCode);

  // A moved-from table keeps resolving in its new home.
  Dictionary moved(std::move(dict));
  EXPECT_EQ(moved.Find(ValueFor(n - 1).data()), static_cast<int32_t>(n - 1));
  EXPECT_EQ(moved.Encode(ValueFor(n).data()), static_cast<int32_t>(n));
}

TEST(StringDictionary, RoundTripsHundredThousandUniqueValues) {
  ExpectRoundTrips<StringDictionary>(100000);
}

TEST(StringDictionary, RoundTripsUnderForcedCollisions) {
  ExpectRoundTrips<BasicStringDictionary<ConstantHash>>(2000);
  ExpectRoundTrips<BasicStringDictionary<FewBucketsHash>>(5000);
}

TEST(StringDictionary, EmptyDictionaryFindsNothing) {
  StringDictionary dict(kWidth);
  EXPECT_EQ(dict.Find(ValueFor(0).data()), StringDictionary::kNoCode);
  const StringDictionary empty = StringDictionary::FromValues(kWidth, "");
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Find(ValueFor(0).data()), StringDictionary::kNoCode);
}

}  // namespace
}  // namespace skyline
