#ifndef SKYLINE_PERFBENCH_LAYER_TRACE_H_
#define SKYLINE_PERFBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace skyline::perfbench {

/// The benchmark's own spans around its calls into each module's public
/// functions, kept in memory in the repository's TraceSink and written out
/// when the run ends. A span is named "<layer.op>-<request id>", so every
/// span of one request carries that request's id.
///
/// Disabled (untraced runs), Span() returns an inert TraceSpan: one branch,
/// no clock read.
class LayerTrace {
 public:
  explicit LayerTrace(bool enabled);

  bool enabled() const { return sink_ != nullptr; }

  /// A span around one call; `request_id` < 0 turns it off for this
  /// request (the untraced half of an overhead comparison).
  TraceSpan Span(const char* name, int64_t request_id) const {
    return TraceSpan(request_id >= 0 ? sink_.get() : nullptr, name,
                     request_id);
  }

  /// Self time in seconds of every recorded span, by span name without its
  /// request id: the span's duration minus the part of it that child spans
  /// on the same thread cover.
  std::map<std::string, std::vector<double>> SelfSeconds() const;

  /// Writes the spans as a Chrome/Perfetto trace document.
  Status WriteChromeTrace(const std::string& path) const;

  uint64_t dropped() const { return sink_ ? sink_->dropped() : 0; }

 private:
  std::unique_ptr<TraceSink> sink_;
};

}  // namespace skyline::perfbench

#endif  // SKYLINE_PERFBENCH_LAYER_TRACE_H_
