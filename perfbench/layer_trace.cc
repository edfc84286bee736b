#include "layer_trace.h"

#include <algorithm>
#include <fstream>

namespace skyline::perfbench {

namespace {

// Enough for every span of a traced run; dropped() reports any overflow.
constexpr size_t kSpanCapacity = 1 << 18;

std::string LayerName(std::string_view name) {
  const size_t dash = name.rfind('-');
  if (dash == std::string_view::npos) return std::string(name);
  return std::string(name.substr(0, dash));
}

}  // namespace

LayerTrace::LayerTrace(bool enabled) {
  if (enabled) sink_ = std::make_unique<TraceSink>(kSpanCapacity);
}

std::map<std::string, std::vector<double>> LayerTrace::SelfSeconds() const {
  std::map<std::string, std::vector<double>> out;
  if (!sink_) return out;
  std::vector<TraceEvent> events = sink_->Snapshot();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<uint64_t> child_ns(events.size(), 0);
  // Open spans of the current thread, innermost last.
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    while (!open.empty()) {
      const TraceEvent& top = events[open.back()];
      if (top.thread_id == event.thread_id &&
          top.start_ns + top.duration_ns > event.start_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += event.duration_ns;
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t self =
        events[i].duration_ns -
        std::min(events[i].duration_ns, child_ns[i]);
    out[LayerName(events[i].name_view())].push_back(self * 1e-9);
  }
  return out;
}

Status LayerTrace::WriteChromeTrace(const std::string& path) const {
  if (!sink_) return Status::OK();
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot write " + path);
  file << sink_->ExportChromeTrace();
  return file ? Status::OK() : Status::IoError("short write to " + path);
}

}  // namespace skyline::perfbench
