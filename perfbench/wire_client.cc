#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json_writer.h"
#include "server/protocol.h"

namespace skyline::perfbench {

WireClient::~WireClient() { Close(); }

Status WireClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return Status::IoError("cannot connect to 127.0.0.1:" +
                           std::to_string(port));
  }
  return Status::OK();
}

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status WireClient::RoundTrip(const std::string& request,
                             std::string* response) {
  if (fd_ < 0) SKYLINE_RETURN_IF_ERROR(Connect(port_));
  Status st = WriteFrame(fd_, request);
  if (st.ok()) st = ReadFrame(fd_, response);
  if (!st.ok()) Close();
  return st;
}

void OutcomeCounts::Add(OpOutcome outcome, const std::string& error_code) {
  ++attempted_;
  switch (outcome) {
    case OpOutcome::kOk:
      ++ok_;
      ++by_outcome_["ok"];
      break;
    case OpOutcome::kErrorFrame:
      ++by_outcome_["error." + error_code];
      break;
    case OpOutcome::kAdmissionRejected:
      ++by_outcome_["admission_rejected"];
      break;
    case OpOutcome::kTimeout:
      ++by_outcome_["timeout"];
      break;
    case OpOutcome::kSocketError:
      ++by_outcome_["socket_error"];
      break;
    case OpOutcome::kOracleMismatch:
      ++by_outcome_["oracle_mismatch"];
      break;
  }
}

void OutcomeCounts::Merge(const OutcomeCounts& other) {
  attempted_ += other.attempted_;
  ok_ += other.ok_;
  for (const auto& [name, count] : other.by_outcome_) {
    by_outcome_[name] += count;
  }
}

void OutcomeCounts::MarkMismatch() {
  // Called once per served response that failed the oracle; each one was
  // counted as ok when it arrived.
  --ok_;
  if (--by_outcome_["ok"] == 0) by_outcome_.erase("ok");
  ++by_outcome_["oracle_mismatch"];
}

QueryResponse ParseQueryResponse(const Status& io, const std::string& payload) {
  QueryResponse response;
  if (!io.ok()) return response;  // kSocketError
  response.response_bytes = payload.size() + 4;
  Result<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok() || !parsed->is_object()) {
    response.outcome = OpOutcome::kErrorFrame;
    response.error_code = "MalformedResponse";
    return response;
  }
  response.document = std::move(parsed).value();
  const JsonValue& doc = response.document;
  if (!doc.GetBool("ok", false)) {
    const JsonValue* error = doc.Find("error");
    response.error_code =
        error != nullptr ? error->GetString("code", "Unknown") : "Unknown";
    if (response.error_code == "ResourceExhausted") {
      response.outcome = OpOutcome::kAdmissionRejected;
    } else if (response.error_code == "Cancelled") {
      response.outcome = OpOutcome::kTimeout;
    } else {
      response.outcome = OpOutcome::kErrorFrame;
    }
    return response;
  }
  response.outcome = OpOutcome::kOk;
  response.rows_affected =
      static_cast<uint64_t>(doc.GetNumber("rows_affected", 0));
  response.table_version =
      static_cast<uint64_t>(doc.GetNumber("table_version", 0));
  if (const JsonValue* report = doc.Find("report")) {
    response.exec_seconds = report->GetNumber("wall_seconds", 0);
    if (const JsonValue* labels = report->Find("labels")) {
      response.cache_label = labels->GetString("result_cache", "");
    }
  }
  return response;
}

std::string QueryRequest(const std::string& sql, int64_t timeout_ms) {
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("op", "query");
  json.KeyValue("sql", sql);
  json.KeyValue("timeout_ms", timeout_ms);
  json.KeyValue("include_rows", true);
  json.KeyValue("include_report", true);
  json.EndObject();
  return json.TakeString();
}

}  // namespace skyline::perfbench
