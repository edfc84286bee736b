#ifndef SKYLINE_PERFBENCH_WIRE_CLIENT_H_
#define SKYLINE_PERFBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/json_reader.h"
#include "common/status.h"

namespace skyline::perfbench {

/// One loopback connection to a SkylineServer that speaks only through the
/// repository's WriteFrame/ReadFrame on a plain socket, with no socket
/// options of its own (as examples/skyline_client does): whatever the
/// server's framing costs on the wire, the measurement sees it.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  Status Connect(uint16_t port);
  void Close();

  /// Sends one request frame and reads its response frame. A socket error
  /// closes the connection; the next call reconnects.
  Status RoundTrip(const std::string& request, std::string* response);

 private:
  uint16_t port_ = 0;
  int fd_ = -1;
};

/// What became of one attempted operation.
enum class OpOutcome {
  kOk,
  /// {"ok": false} with a code other than the two below.
  kErrorFrame,
  /// ResourceExhausted: admission control or the connection limit.
  kAdmissionRejected,
  /// Cancelled by the request's deadline.
  kTimeout,
  /// Connect, write or read failed on the socket.
  kSocketError,
  /// The served rows differ from the cold recompute.
  kOracleMismatch,
};

/// Every attempted operation counted by outcome, with error frames also
/// counted per status code, so a failure fraction always has its base.
class OutcomeCounts {
 public:
  void Add(OpOutcome outcome, const std::string& error_code = "");
  void Merge(const OutcomeCounts& other);
  /// Re-labels one operation counted as ok as an oracle mismatch.
  void MarkMismatch();

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return attempted_ - ok_; }
  /// "ok", "error.<Code>", "admission_rejected", "timeout",
  /// "socket_error", "oracle_mismatch" → count.
  const std::map<std::string, uint64_t>& by_outcome() const {
    return by_outcome_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t ok_ = 0;
  std::map<std::string, uint64_t> by_outcome_;
};

/// A parsed query response: outcome plus the fields the benchmark reads.
struct QueryResponse {
  OpOutcome outcome = OpOutcome::kSocketError;
  std::string error_code;
  /// report.labels.result_cache: "hit", "miss", "bypass" or "write".
  std::string cache_label;
  /// report.wall_seconds: the server's own execution time.
  double exec_seconds = 0;
  size_t response_bytes = 0;
  uint64_t rows_affected = 0;
  uint64_t table_version = 0;
  JsonValue document;
};

/// Classifies a round trip: socket failures, error frames by code, or ok
/// with the report fields extracted.
QueryResponse ParseQueryResponse(const Status& io, const std::string& payload);

/// {"op": "query", "sql": ..., "timeout_ms": ..., rows and report on}.
std::string QueryRequest(const std::string& sql, int64_t timeout_ms);

}  // namespace skyline::perfbench

#endif  // SKYLINE_PERFBENCH_WIRE_CLIENT_H_
