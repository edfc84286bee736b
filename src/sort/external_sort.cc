#include "sort/external_sort.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace skyline {
namespace {

/// Record size of a prefix-key stream: one native-endian uint64 per record.
constexpr size_t kKeyRecordSize = sizeof(uint64_t);

/// One input cursor of a k-way merge: the run's records and, in step, the
/// prefix keys run formation computed for them. The record pointer stays
/// valid until the next Advance (it points into the reader's page).
class MergeCursor {
 public:
  MergeCursor(Env* env, const std::string& rows_path,
              const std::string& keys_path, size_t record_size, IoStats* io,
              IoStats* key_io)
      : rows_(env, rows_path, record_size, io),
        keys_(env, keys_path, kKeyRecordSize, key_io) {}

  Status Open() {
    SKYLINE_RETURN_IF_ERROR(rows_.Open());
    SKYLINE_RETURN_IF_ERROR(keys_.Open());
    if (rows_.record_count() != keys_.record_count()) {
      return Status::Corruption("sort run and its key stream disagree: " +
                                rows_.path());
    }
    return Advance();
  }

  bool exhausted() const { return record_ == nullptr; }
  const char* record() const { return record_; }
  uint64_t key() const { return key_; }

  Status Advance() {
    record_ = rows_.Next();
    if (record_ == nullptr) return rows_.status();
    const char* key = keys_.Next();
    if (key == nullptr) {
      record_ = nullptr;
      SKYLINE_RETURN_IF_ERROR(keys_.status());
      return Status::Corruption("key stream ended early: " + keys_.path());
    }
    std::memcpy(&key_, key, sizeof(key_));
    return Status::OK();
  }

 private:
  HeapFileReader rows_;
  HeapFileReader keys_;
  const char* record_ = nullptr;
  uint64_t key_ = 0;
};

/// Tournament tree of losers over k merge cursors: the winner is the
/// cursor whose record sorts first, and replacing it replays one
/// leaf-to-root path (log2 k matches) instead of a heap's sift. Leaves are
/// padded to a power of two with permanently exhausted slots.
class LoserTree {
 public:
  LoserTree(const std::vector<std::unique_ptr<MergeCursor>>* cursors,
            const RowOrdering* ordering)
      : cursors_(cursors), ordering_(ordering) {
    leaves_ = 1;
    while (leaves_ < cursors_->size()) leaves_ *= 2;
    losers_.assign(leaves_, kNone);
    // Play every match bottom-up; winners[n] is the winner below node n.
    std::vector<size_t> winners(2 * leaves_, kNone);
    for (size_t i = 0; i < cursors_->size(); ++i) winners[leaves_ + i] = i;
    for (size_t n = leaves_ - 1; n >= 1; --n) {
      const size_t a = winners[2 * n];
      const size_t b = winners[2 * n + 1];
      const bool a_wins = Before(a, b);
      winners[n] = a_wins ? a : b;
      losers_[n] = a_wins ? b : a;
    }
    winner_ = leaves_ > 1 ? winners[1] : winners[leaves_];
  }

  /// Index of the cursor to emit next, or kNone when all are exhausted.
  size_t winner() const {
    return winner_ != kNone && !(*cursors_)[winner_]->exhausted() ? winner_
                                                                   : kNone;
  }

  /// Re-seats the winner after its cursor advanced.
  void Replay() {
    size_t current = winner_;
    for (size_t n = (leaves_ + current) / 2; n >= 1; n /= 2) {
      if (Before(losers_[n], current)) std::swap(losers_[n], current);
    }
    winner_ = current;
  }

  static constexpr size_t kNone = static_cast<size_t>(-1);

 private:
  /// True if cursor `a` must be emitted before cursor `b`: smaller prefix
  /// key, then Compare, then the earlier run (which makes the merge
  /// stable). Exhausted and padding slots lose to everything.
  bool Before(size_t a, size_t b) const {
    if (a == kNone || (*cursors_)[a]->exhausted()) return false;
    if (b == kNone || (*cursors_)[b]->exhausted()) return true;
    const MergeCursor& ca = *(*cursors_)[a];
    const MergeCursor& cb = *(*cursors_)[b];
    if (ca.key() != cb.key()) return ca.key() < cb.key();
    const int c = ordering_->Compare(ca.record(), cb.record());
    if (c != 0) return c < 0;
    return a < b;
  }

  const std::vector<std::unique_ptr<MergeCursor>>* cursors_;
  const RowOrdering* ordering_;
  size_t leaves_ = 1;
  std::vector<size_t> losers_;  // losers_[n] for internal node n >= 1
  size_t winner_ = kNone;
};

/// (prefix key, position in the run buffer) pair of run formation. Packed
/// to 12 bytes: a run holds two arrays of these (the radix sort's source
/// and destination) beside its record buffer, on every pool thread.
#pragma pack(push, 4)
struct KeyedRow {
  uint64_t key;
  uint32_t row;
};
#pragma pack(pop)
static_assert(sizeof(KeyedRow) == 12);

/// Stable LSD radix sort of `rows` by key, one byte per pass. A pass on
/// which every key has the same byte would only copy, so it is skipped:
/// orderings whose prefixes are all 0 cost one counting pass.
void RadixSortByKey(std::vector<KeyedRow>* rows) {
  constexpr int kDigits = 8;
  const size_t n = rows->size();
  if (n < 2) return;
  std::vector<std::array<uint32_t, 256>> counts(kDigits);
  for (auto& digit : counts) digit.fill(0);
  for (const KeyedRow& r : *rows) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][(r.key >> (8 * d)) & 0xff];
  }
  std::vector<KeyedRow> scratch(n);
  for (int d = 0; d < kDigits; ++d) {
    const uint64_t first_digit = ((*rows)[0].key >> (8 * d)) & 0xff;
    if (counts[d][first_digit] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : counts[d]) {
      const uint32_t count = c;
      c = offset;
      offset += count;
    }
    for (const KeyedRow& r : *rows) {
      scratch[counts[d][(r.key >> (8 * d)) & 0xff]++] = r;
    }
    rows->swap(scratch);
  }
}

/// Double-buffered record sink: the merge thread deposits records into the
/// front batch while a background task appends the back batch to the
/// writer, overlapping comparison work with page I/O. Appends are chained
/// through a single future, so writer calls stay strictly ordered.
class OverlappedAppender {
 public:
  OverlappedAppender(HeapFileWriter* writer, ThreadPool* pool,
                     size_t record_size)
      : writer_(writer), pool_(pool), record_size_(record_size) {
    // Batch a few pages' worth so one handoff amortizes task overhead.
    batch_capacity_ = 8 * RecordsPerPage(record_size);
    if (batch_capacity_ == 0) batch_capacity_ = 1;
    front_.reserve(batch_capacity_ * record_size_);
    back_.reserve(batch_capacity_ * record_size_);
  }

  Status Append(const char* record) {
    front_.insert(front_.end(), record, record + record_size_);
    if (front_.size() >= batch_capacity_ * record_size_) {
      return FlushBatch();
    }
    return Status::OK();
  }

  /// Waits for the in-flight batch and appends the tail synchronously.
  Status Finish() {
    SKYLINE_RETURN_IF_ERROR(FlushBatch());
    return WaitInFlight();
  }

 private:
  Status FlushBatch() {
    SKYLINE_RETURN_IF_ERROR(WaitInFlight());
    if (front_.empty()) return Status::OK();
    front_.swap(back_);
    front_.clear();
    in_flight_ = pool_->Submit([this]() {
      const size_t count = back_.size() / record_size_;
      for (size_t i = 0; i < count; ++i) {
        Status st = writer_->Append(back_.data() + i * record_size_);
        if (!st.ok()) return st;
      }
      return Status::OK();
    });
    return Status::OK();
  }

  Status WaitInFlight() {
    if (!in_flight_.valid()) return Status::OK();
    Status st = in_flight_.get();
    in_flight_ = std::future<Status>();
    return st;
  }

  HeapFileWriter* writer_;
  ThreadPool* pool_;
  size_t record_size_;
  size_t batch_capacity_;
  std::vector<char> front_;
  std::vector<char> back_;
  std::future<Status> in_flight_;
};

}  // namespace

ExternalSorter::ExternalSorter(Env* env, TempFileManager* temp_files,
                               const RowOrdering* ordering, size_t record_size,
                               const SortOptions& options,
                               const ExecContext& ctx, SortStats* stats_out)
    : env_(env),
      temp_files_(temp_files),
      ordering_(ordering),
      record_size_(record_size),
      options_(options),
      ctx_(&ctx),
      stats_out_(stats_out),
      stats_(stats_out_ != nullptr ? stats_out_ : &local_stats_) {
  SKYLINE_CHECK_GE(options_.buffer_pages, 3u)
      << "external sort needs at least 3 buffer pages";
}

Result<std::string> ExternalSorter::Sort(const std::string& input_path) {
  *stats_ = SortStats{};
  SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
  const size_t threads = ctx_->WorkerThreads();
  stats_->threads_used = threads;
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  std::vector<Run> runs;
  TraceSpan run_span(ctx_->trace, "run-formation");
  SKYLINE_ASSIGN_OR_RETURN(std::string single, GenerateRuns(input_path, &runs));
  run_span.End();
  if (!single.empty()) return single;  // fit in one run
  return MergeRuns(std::move(runs));
}

Status ExternalSorter::SortAndWriteRun(std::vector<char> buffer, size_t count,
                                       const Run& run, IoStats* io,
                                       IoStats* key_io) {
  const char* base = buffer.data();
  const size_t width = record_size_;
  std::vector<KeyedRow> order(count);
  for (size_t i = 0; i < count; ++i) {
    order[i] = {ordering_->PrefixKey(base + i * width),
                static_cast<uint32_t>(i)};
  }
  RadixSortByKey(&order);
  // The radix sort is stable, so each equal-prefix span is still in input
  // order; a stable sort of the span by Compare completes the run order.
  for (size_t lo = 0; lo < count;) {
    size_t hi = lo + 1;
    while (hi < count && order[hi].key == order[lo].key) ++hi;
    if (hi - lo > 1) {
      std::stable_sort(order.begin() + lo, order.begin() + hi,
                       [this, base, width](const KeyedRow& a,
                                           const KeyedRow& b) {
                         return ordering_->Compare(base + a.row * width,
                                                   base + b.row * width) < 0;
                       });
    }
    lo = hi;
  }

  HeapFileWriter writer(env_, run.rows, record_size_, io);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  for (const KeyedRow& r : order) {
    SKYLINE_RETURN_IF_ERROR(writer.Append(base + r.row * width));
  }
  SKYLINE_RETURN_IF_ERROR(writer.Finish());
  if (run.keys.empty()) return Status::OK();
  HeapFileWriter keys(env_, run.keys, kKeyRecordSize, key_io);
  SKYLINE_RETURN_IF_ERROR(keys.Open());
  for (const KeyedRow& r : order) {
    const uint64_t key = r.key;
    SKYLINE_RETURN_IF_ERROR(keys.Append(reinterpret_cast<const char*>(&key)));
  }
  return keys.Finish();
}

Result<std::string> ExternalSorter::GenerateRuns(
    const std::string& input_path, std::vector<Run>* runs) {
  const size_t per_page = RecordsPerPage(record_size_);
  const size_t run_capacity = options_.buffer_pages * per_page;

  HeapFileReader reader(env_, input_path, record_size_, nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());

  const uint64_t total_records = reader.record_count();
  const bool single_run = total_records <= run_capacity;

  // Pipelined run formation: the input scan stays sequential (so run
  // boundaries — and therefore the final sorted bytes — are identical for
  // every thread count), but whole runs are sorted and written as pool
  // tasks while the scan fills the next buffer.
  struct PendingRun {
    std::future<Status> done;
    IoStats io;
    IoStats key_io;
  };
  std::deque<PendingRun> pending;
  const size_t max_in_flight = pool_ != nullptr ? pool_->num_threads() : 0;
  Status background_error;

  auto reap_front = [&]() {
    Status st = pending.front().done.get();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_->io += pending.front().io;
      stats_->key_io += pending.front().key_io;
    }
    pending.pop_front();
    if (!st.ok() && background_error.ok()) background_error = st;
  };
  auto reap_all = [&]() {
    while (!pending.empty()) reap_front();
  };

  // Records are copied straight into a buffer sized for one run (or the
  // whole input, when that is smaller).
  const size_t buffer_bytes =
      static_cast<size_t>(std::min<uint64_t>(run_capacity, total_records)) *
      record_size_;
  std::vector<char> buffer;
  const bool poll_cancel = ctx_->has_cancel_hook();
  uint64_t scanned = 0;

  while (true) {
    buffer.resize(buffer_bytes);
    size_t n = 0;
    while (n < run_capacity) {
      const char* rec = reader.Next();
      if (rec == nullptr) break;
      if (poll_cancel && (++scanned & 4095u) == 0) {
        Status st = ctx_->CheckCancelled();
        if (!st.ok()) {
          reap_all();
          return st;
        }
      }
      std::memcpy(buffer.data() + n * record_size_, rec, record_size_);
      ++n;
    }
    if (!reader.status().ok()) {
      reap_all();
      return reader.status();
    }
    if (n == 0) break;

    // A run that will be merged carries its prefix keys along.
    Run run{temp_files_->Allocate("sortrun"),
            single_run ? std::string() : temp_files_->Allocate("sortkeys")};
    runs->push_back(run);
    ++stats_->runs_generated;

    if (pool_ != nullptr && !single_run) {
      if (pending.size() >= max_in_flight) reap_front();
      if (!background_error.ok()) break;  // stop scanning on task failure
      pending.emplace_back();
      PendingRun& slot = pending.back();
      slot.done = pool_->Submit([this, buf = std::move(buffer), n, run,
                                 io = &slot.io,
                                 key_io = &slot.key_io]() mutable {
        return SortAndWriteRun(std::move(buf), n, run, io, key_io);
      });
      buffer = std::vector<char>();
    } else {
      IoStats io;
      IoStats key_io;
      Status st = SortAndWriteRun(std::move(buffer), n, run, &io, &key_io);
      stats_->io += io;
      stats_->key_io += key_io;
      buffer = std::vector<char>();
      if (!st.ok()) {
        reap_all();
        return st;
      }
      if (single_run) {
        // The whole input fit in the buffer: done after one run.
        return runs->front().rows;
      }
    }
  }
  reap_all();
  SKYLINE_RETURN_IF_ERROR(background_error);

  if (runs->empty()) {
    // Empty input: produce an empty sorted file.
    std::string path = temp_files_->Allocate("sortrun");
    HeapFileWriter writer(env_, path, record_size_, &stats_->io);
    SKYLINE_RETURN_IF_ERROR(writer.Open());
    SKYLINE_RETURN_IF_ERROR(writer.Finish());
    ++stats_->runs_generated;
    return path;
  }
  return std::string();  // more than one run: caller merges
}

Result<std::string> ExternalSorter::MergeRuns(std::vector<Run> runs) {
  const size_t fan_in = std::max<size_t>(2, options_.buffer_pages - 1);
  while (runs.size() > 1) {
    ++stats_->merge_levels;
    SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
    TraceSpan merge_span(ctx_->trace, "merge",
                         static_cast<int64_t>(stats_->merge_levels));
    // The last level writes the sorted output, which nothing merges again,
    // so it keeps no key stream.
    const bool last_level = runs.size() <= fan_in;
    // Form this level's groups up front so their outputs are allocated in
    // order; independent groups then merge concurrently.
    std::vector<std::vector<Run>> groups;
    std::vector<Run> next_level;
    std::vector<size_t> group_slot;  // index into next_level per group
    for (size_t i = 0; i < runs.size(); i += fan_in) {
      const size_t end = std::min(runs.size(), i + fan_in);
      std::vector<Run> group(runs.begin() + i, runs.begin() + end);
      if (group.size() == 1) {
        next_level.push_back(std::move(group.front()));
        continue;
      }
      next_level.push_back(
          Run{temp_files_->Allocate("sortmerge"),
              last_level ? std::string() : temp_files_->Allocate("sortkeys")});
      group_slot.push_back(next_level.size() - 1);
      groups.push_back(std::move(group));
    }

    if (pool_ != nullptr && groups.size() > 1) {
      std::vector<std::future<Status>> done(groups.size());
      std::vector<IoStats> io(groups.size());
      std::vector<IoStats> key_io(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        done[g] = pool_->Submit([this, &groups, &next_level, &group_slot, &io,
                                 &key_io, g]() {
          // No append_pool from inside a pool task: a task must not wait
          // on work it queued behind its siblings.
          return MergeOnce(groups[g], next_level[group_slot[g]],
                           /*append_pool=*/nullptr, &io[g], &key_io[g]);
        });
      }
      Status first_error;
      for (size_t g = 0; g < groups.size(); ++g) {
        Status st = done[g].get();
        stats_->io += io[g];
        stats_->key_io += key_io[g];
        if (!st.ok() && first_error.ok()) first_error = st;
      }
      SKYLINE_RETURN_IF_ERROR(first_error);
    } else {
      for (size_t g = 0; g < groups.size(); ++g) {
        IoStats io;
        IoStats key_io;
        Status st = MergeOnce(groups[g], next_level[group_slot[g]],
                              /*append_pool=*/pool_.get(), &io, &key_io);
        stats_->io += io;
        stats_->key_io += key_io;
        SKYLINE_RETURN_IF_ERROR(st);
      }
    }
    for (const auto& group : groups) {
      for (const Run& run : group) {
        temp_files_->Delete(run.rows);
        temp_files_->Delete(run.keys);
      }
    }
    runs = std::move(next_level);
  }
  return runs.front().rows;
}

Status ExternalSorter::MergeOnce(const std::vector<Run>& group, const Run& out,
                                 ThreadPool* append_pool, IoStats* io,
                                 IoStats* key_io) {
  // Cursor order is run order: the loser tree breaks full ties by it.
  std::vector<std::unique_ptr<MergeCursor>> cursors;
  cursors.reserve(group.size());
  for (const Run& run : group) {
    auto cursor = std::make_unique<MergeCursor>(env_, run.rows, run.keys,
                                                record_size_, io, key_io);
    SKYLINE_RETURN_IF_ERROR(cursor->Open());
    if (!cursor->exhausted()) cursors.push_back(std::move(cursor));
  }
  LoserTree tree(&cursors, ordering_);

  HeapFileWriter writer(env_, out.rows, record_size_, io);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  std::unique_ptr<HeapFileWriter> keys;
  if (!out.keys.empty()) {
    keys = std::make_unique<HeapFileWriter>(env_, out.keys, kKeyRecordSize,
                                            key_io);
    SKYLINE_RETURN_IF_ERROR(keys->Open());
  }
  std::unique_ptr<OverlappedAppender> overlapped;
  if (append_pool != nullptr) {
    overlapped =
        std::make_unique<OverlappedAppender>(&writer, append_pool,
                                             record_size_);
  }

  const bool poll_cancel = ctx_->has_cancel_hook();
  uint64_t merged = 0;
  for (size_t w = tree.winner(); w != LoserTree::kNone; w = tree.winner()) {
    if (poll_cancel && (++merged & 4095u) == 0) {
      SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
    }
    MergeCursor* top = cursors[w].get();
    if (overlapped != nullptr) {
      SKYLINE_RETURN_IF_ERROR(overlapped->Append(top->record()));
    } else {
      SKYLINE_RETURN_IF_ERROR(writer.Append(top->record()));
    }
    if (keys != nullptr) {
      const uint64_t key = top->key();
      SKYLINE_RETURN_IF_ERROR(
          keys->Append(reinterpret_cast<const char*>(&key)));
    }
    SKYLINE_RETURN_IF_ERROR(top->Advance());
    tree.Replay();
  }
  if (overlapped != nullptr) {
    SKYLINE_RETURN_IF_ERROR(overlapped->Finish());
  }
  if (keys != nullptr) SKYLINE_RETURN_IF_ERROR(keys->Finish());
  return writer.Finish();
}

Result<std::string> SortHeapFile(Env* env, TempFileManager* temp_files,
                                 const std::string& input_path,
                                 size_t record_size,
                                 const RowOrdering& ordering,
                                 const SortOptions& options,
                                 const ExecContext& ctx, SortStats* stats) {
  ExternalSorter sorter(env, temp_files, &ordering, record_size, options, ctx,
                        stats);
  return sorter.Sort(input_path);
}

}  // namespace skyline
