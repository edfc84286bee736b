#ifndef SKYLINE_RELATION_DICTIONARY_H_
#define SKYLINE_RELATION_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace skyline {

/// Word-at-a-time multiplicative hash of a fixed-width value; the final
/// mix folds high bits into the low ones the probe table indexes by.
struct FixedBytesHash {
  uint64_t operator()(const char* bytes, size_t n) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t word;
      std::memcpy(&word, bytes + i, 8);
      h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
    if (i < n) {
      uint64_t tail = 0;
      std::memcpy(&tail, bytes + i, n - i);
      h = (h ^ tail) * 0xBF58476D1CE4E5B9ULL;
    }
    h *= 0x94D049BB133111EBULL;
    return h ^ (h >> 29);
  }
};

/// Per-column dictionary for fixed-width string values. Encoding a string
/// DIFF criterion as its dictionary code lets the columnar kernel treat it
/// as a plain int32 equality lane: DIFF needs only equality, and distinct
/// strings get distinct codes, so code equality == byte equality. Codes
/// are assigned densely in discovery order.
///
/// Layout: the values live once, code-ordered, in one arena; lookups go
/// through a flat open-addressing table of int32 codes into that arena
/// (linear probing, load factor at most 1/2). Nothing points into the
/// arena, so growing it never invalidates the table.
///
/// Thread-safety contract: Encode (assign-on-miss) is single-writer and
/// must not run concurrently with anything; Find/Value are const and safe
/// to call from many threads once the dictionary is no longer mutated.
/// The parallel merge phase relies on exactly this: indexes are built
/// sequentially (Encode), then probed concurrently (Find).
///
/// `Hash` is a template parameter only so tests can force collisions.
template <typename Hash>
class BasicStringDictionary {
 public:
  /// Code returned by Find for a value absent from the dictionary. All
  /// real codes are >= 0, so kNoCode compares below every zone-map min
  /// and equals no entry lane — an unseen probe string relates to nothing,
  /// which is exactly the DIFF semantics. Also marks an empty table slot.
  static constexpr int32_t kNoCode = -1;

  explicit BasicStringDictionary(size_t value_width)
      : value_width_(value_width) {}

  BasicStringDictionary(const BasicStringDictionary&) = delete;
  BasicStringDictionary& operator=(const BasicStringDictionary&) = delete;

  BasicStringDictionary(BasicStringDictionary&& other) noexcept
      : value_width_(other.value_width_),
        arena_(std::move(other.arena_)),
        slots_(std::move(other.slots_)) {}

  /// Returns the code for `bytes` (value_width_ bytes), assigning the next
  /// code on first sight. Mutable: see the thread-safety contract.
  int32_t Encode(const char* bytes) {
    if (2 * (size() + 1) > slots_.size()) {
      Rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    int32_t& slot = slots_[SlotOf(bytes)];
    if (slot == kNoCode) {
      slot = static_cast<int32_t>(size());
      arena_.append(bytes, value_width_);
    }
    return slot;
  }

  /// Const lookup: code for `bytes`, or kNoCode when absent. Counts
  /// probe hits/misses for run reports.
  int32_t Find(const char* bytes) const {
    const int32_t code = slots_.empty() ? kNoCode : slots_[SlotOf(bytes)];
    (code == kNoCode ? probe_misses_ : probe_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    return code;
  }

  /// Raw bytes of `code` (value_width_ bytes).
  const char* Value(int32_t code) const {
    return arena_.data() + static_cast<size_t>(code) * value_width_;
  }

  size_t size() const { return arena_.size() / value_width_; }
  size_t value_width() const { return value_width_; }

  uint64_t probe_hits() const {
    return probe_hits_.load(std::memory_order_relaxed);
  }
  uint64_t probe_misses() const {
    return probe_misses_.load(std::memory_order_relaxed);
  }

  /// Dense code-ordered value blob (size() * value_width_ bytes) for
  /// persistence.
  const std::string& SerializedValues() const { return arena_; }

  /// Rebuilds the dictionary from a dense code-ordered blob. The entry
  /// count is known up front, so the table is sized once.
  static BasicStringDictionary FromValues(size_t value_width,
                                          std::string_view blob) {
    BasicStringDictionary dict(value_width);
    const size_t n = blob.size() / value_width;
    size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    dict.arena_.reserve(n * value_width);
    dict.Rehash(capacity);
    for (size_t i = 0; i < n; ++i) dict.Encode(blob.data() + i * value_width);
    return dict;
  }

 private:
  /// Linear probe from the value's hash: the slot holding its code, or
  /// the empty slot where it belongs.
  size_t SlotOf(const char* bytes) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = Hash()(bytes, value_width_) & mask;
    while (slots_[slot] != kNoCode &&
           std::memcmp(Value(slots_[slot]), bytes, value_width_) != 0) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Resizes the table to `capacity` slots (a power of two) and reinserts
  /// every code.
  void Rehash(size_t capacity) {
    slots_.assign(capacity, kNoCode);
    const size_t n = size();
    for (size_t code = 0; code < n; ++code) {
      slots_[SlotOf(Value(static_cast<int32_t>(code)))] =
          static_cast<int32_t>(code);
    }
  }

  const size_t value_width_;
  std::string arena_;  // code-ordered values, value_width_ bytes each
  std::vector<int32_t> slots_;  // codes, kNoCode = empty; size 0 or 2^k
  mutable std::atomic<uint64_t> probe_hits_{0};
  mutable std::atomic<uint64_t> probe_misses_{0};
};

using StringDictionary = BasicStringDictionary<FixedBytesHash>;

}  // namespace skyline

#endif  // SKYLINE_RELATION_DICTIONARY_H_
