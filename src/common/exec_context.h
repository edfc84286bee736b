#ifndef SKYLINE_COMMON_EXEC_CONTEXT_H_
#define SKYLINE_COMMON_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"

namespace skyline {

/// Per-execution environment every algorithm entry point accepts: the one
/// place a server configures worker threads, temp-file placement,
/// telemetry sinks, and cancellation.
///
/// The default-constructed context is the zero-overhead configuration:
/// one thread, no metrics, no tracing, no cancellation hook. Sinks are
/// borrowed and must outlive every operation run under the context.
///
/// Threads (pinned by exec_context_test): `threads` is the only thread
/// knob. The presort, the SFS filter, the 2-d/3-d scans and the skyline
/// operator all read it, through WorkerThreads(). 1 (the default) is the
/// sequential algorithm; 0 means one worker per hardware thread; any
/// other value is taken literally, then clamped to the hardware
/// (oversubscription is a strict loss for the block-parallel filter). A
/// SQL session copies its Session::Options::threads (sql/engine.h) into
/// its context once, at construction.
struct ExecContext {
  /// Worker threads for every phase run under this context: 1 =
  /// sequential, 0 = one per hardware thread.
  size_t threads = 1;

  /// Temp-file namespace for intermediates. Empty = derive from the
  /// operation's output path (the legacy behavior).
  std::string temp_prefix;

  /// Metrics sink; null = metrics off (handles become inert).
  MetricsRegistry* metrics = nullptr;

  /// Trace sink; null = tracing off (spans become a single branch).
  TraceSink* trace = nullptr;

  /// Polled at phase boundaries and every few thousand rows inside the
  /// long loops; returning true aborts the operation with a kCancelled
  /// status. Null = never cancelled. Must be thread-safe: the parallel
  /// phases poll it from pool workers.
  std::function<bool()> cancelled;

  /// The worker count every phase runs with: `threads` (0 = hardware),
  /// clamped to the hardware concurrency.
  size_t WorkerThreads() const;

  /// `temp_prefix` if set, else `fallback`.
  const std::string& TempPrefixOr(const std::string& fallback) const {
    return temp_prefix.empty() ? fallback : temp_prefix;
  }

  /// OK, or kCancelled if the hook reports cancellation.
  Status CheckCancelled() const {
    if (cancelled && cancelled()) {
      return Status::Cancelled("operation cancelled by ExecContext hook");
    }
    return Status::OK();
  }

  bool has_cancel_hook() const { return static_cast<bool>(cancelled); }
};

}  // namespace skyline

#endif  // SKYLINE_COMMON_EXEC_CONTEXT_H_
