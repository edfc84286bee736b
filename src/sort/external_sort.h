#ifndef SKYLINE_SORT_EXTERNAL_SORT_H_
#define SKYLINE_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "env/env.h"
#include "sort/comparator.h"
#include "storage/io_stats.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Tuning knobs for the external merge sort.
struct SortOptions {
  /// Pages of record buffer available: bounds both the in-memory run size
  /// and the merge fan-in. The paper's experiments give the sort a
  /// 1,000-page allocation.
  size_t buffer_pages = 1000;
};

/// Observability counters for one Sort() call.
struct SortStats {
  uint64_t runs_generated = 0;
  uint64_t merge_levels = 0;
  /// Worker threads the sort actually used.
  uint64_t threads_used = 1;
  /// Record pages written+read for runs and merges (excludes reading the
  /// input and counts the final output's write).
  IoStats io;
  /// Pages of the runs' prefix-key streams (8-byte keys, 512 per page),
  /// written and read only when the input needs a merge. Kept apart from
  /// `io` so the record-page counts of the paper's figures stay as they
  /// were.
  IoStats key_io;
};

/// External merge sort over heap files of fixed-width records, ordered by
/// one exact integer prefix per record (RowOrdering::PrefixKey) with
/// RowOrdering::Compare deciding only between equal prefixes.
///
/// Run formation reads `buffer_pages` pages of records, computes each
/// record's prefix once, LSD-radix-sorts (prefix, position) pairs (digit
/// passes on which every key agrees are skipped), stable-sorts each
/// equal-prefix span by Compare and writes the run. When the input needs a
/// merge, each run also writes its prefixes to a companion key stream, so
/// merges never re-score a record. Merges are k-way over a loser tree with
/// fan-in `buffer_pages - 1`; ties go to Compare, then to the earlier run.
///
/// The output is therefore exactly `std::stable_sort` of the input under
/// Compare (given the PrefixKey contract): fully-equal records keep their
/// input order, and the bytes do not depend on the thread count.
///
/// With ExecContext::WorkerThreads() > 1 the sorter parallelizes on a
/// ThreadPool: run formation pipelines the (sequential) input scan against
/// concurrent sort+write of whole runs, merge levels process independent
/// run groups concurrently, and a single-group (final) merge overlaps its
/// comparison work with page writes via a double-buffered background
/// appender. Parallelism only changes *when* each run is sorted and each
/// group merged, never the run boundaries or merge tree. With T workers,
/// up to T in-memory runs are in flight at once, so peak memory is
/// ~T × buffer_pages pages.
class ExternalSorter {
 public:
  /// All pointers must outlive the sorter. `stats_out` may be null. The
  /// context supplies the worker count, trace sink ("run-formation" and
  /// per-level "merge-N" spans), and the cancellation hook polled during
  /// the input scan and each merge.
  ExternalSorter(Env* env, TempFileManager* temp_files,
                 const RowOrdering* ordering, size_t record_size,
                 const SortOptions& options, const ExecContext& ctx,
                 SortStats* stats_out);

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Sorts the heap file at `input_path` and returns the path of a new
  /// sorted temp heap file (owned by the TempFileManager).
  Result<std::string> Sort(const std::string& input_path);

 private:
  /// A sorted run: its records, and its prefix-key stream (empty when the
  /// run is the sort's output and nothing merges it).
  struct Run {
    std::string rows;
    std::string keys;
  };

  Result<std::string> GenerateRuns(const std::string& input_path,
                                   std::vector<Run>* runs);
  /// Sorts `count` records in `buffer` and writes them to `run`,
  /// accumulating page I/O into `io`/`key_io` (caller-local; merged later).
  Status SortAndWriteRun(std::vector<char> buffer, size_t count,
                         const Run& run, IoStats* io, IoStats* key_io);
  Result<std::string> MergeRuns(std::vector<Run> runs);
  /// Merges `group` into `out` (writing out.keys unless it is empty).
  /// `append_pool`, when non-null, receives the page-append work so it
  /// overlaps with comparisons; it must only be set when MergeOnce runs on
  /// the caller thread (never from inside a pool task, which must not wait
  /// on tasks it submitted).
  Status MergeOnce(const std::vector<Run>& group, const Run& out,
                   ThreadPool* append_pool, IoStats* io, IoStats* key_io);

  Env* env_;
  TempFileManager* temp_files_;
  const RowOrdering* ordering_;
  size_t record_size_;
  SortOptions options_;
  const ExecContext* ctx_;
  SortStats* stats_out_;
  SortStats local_stats_;
  SortStats* stats_;
  std::unique_ptr<ThreadPool> pool_;
  std::mutex stats_mu_;
};

/// Convenience: sort `input_path` with `ordering` using fresh temp files in
/// `env`, returning the sorted file path. `stats` may be null.
Result<std::string> SortHeapFile(Env* env, TempFileManager* temp_files,
                                 const std::string& input_path,
                                 size_t record_size,
                                 const RowOrdering& ordering,
                                 const SortOptions& options,
                                 const ExecContext& ctx, SortStats* stats);

}  // namespace skyline

#endif  // SKYLINE_SORT_EXTERNAL_SORT_H_
