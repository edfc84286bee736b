#include "server/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "core/run_report.h"
#include "core/skyline_algorithm.h"
#include "server/protocol.h"

namespace skyline {
namespace {

/// One result cell, preserving integer width (int64 through a double
/// would corrupt values beyond 2^53).
struct Cell {
  enum class Kind { kInt, kDouble, kText } kind = Kind::kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;
};

void EmitCell(JsonWriter* json, const Cell& cell) {
  switch (cell.kind) {
    case Cell::Kind::kInt:
      json->Value(cell.i);
      break;
    case Cell::Kind::kDouble:
      json->Value(cell.d);
      break;
    case Cell::Kind::kText:
      json->Value(cell.s);
      break;
  }
}

std::string ErrorResponse(const Status& status) {
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("ok", false);
  json.Key("error");
  json.BeginObject();
  json.KeyValue("code", StatusCodeName(status.code()));
  json.KeyValue("message", status.message());
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

}  // namespace

SkylineServer::SkylineServer(const Options& options) : options_(options) {}

SkylineServer::~SkylineServer() { Stop(); }

Status SkylineServer::Start() {
  if (options_.engine == nullptr) {
    return Status::InvalidArgument("SkylineServer requires an engine");
  }
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server is already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + ::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + ::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + ::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  shutdown_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SkylineServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Wake the accept loop, then the per-connection reads.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // fds still listed are still open (workers delist before closing), so
    // shutdown reliably unblocks their recv().
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  // Cleared only now that every worker has joined and none can add its id.
  std::lock_guard<std::mutex> lock(mu_);
  finished_workers_.clear();
}

SkylineServer::Counters SkylineServer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void SkylineServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == ECONNABORTED) continue;
      break;  // listen socket is gone; nothing left to accept
    }
    ReapFinishedWorkers();
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_connections_ >= options_.max_connections ||
          shutdown_requested_.load(std::memory_order_acquire)) {
        ++counters_.connections_rejected;
        reject = true;
      } else {
        ++counters_.connections_accepted;
        ++active_connections_;
        active_fds_.push_back(fd);
        workers_.emplace_back([this, fd] { ServeConnection(fd); });
      }
    }
    if (reject) {
      (void)WriteFrame(fd, ErrorResponse(Status::ResourceExhausted(
                               "server connection limit reached")));
      ::close(fd);
    }
  }
}

void SkylineServer::ServeConnection(int fd) {
  Session session(options_.engine, options_.session);
  std::string payload;
  while (running_.load(std::memory_order_acquire)) {
    const Status read_status = ReadFrame(fd, &payload);
    if (!read_status.ok()) {
      // NotFound = clean close between frames; anything else is already a
      // broken stream, so a best-effort error frame and disconnect.
      if (!read_status.IsNotFound()) {
        (void)WriteFrame(fd, ErrorResponse(read_status));
      }
      break;
    }
    Status write_status = WriteFrame(fd, HandleRequest(&session, payload));
    // An oversized response was refused before any byte went out, so the
    // stream is intact: answer with an error frame and keep serving.
    if (write_status.IsResourceExhausted()) {
      write_status = WriteFrame(fd, ErrorResponse(write_status));
    }
    if (!write_status.ok()) break;
    if (shutdown_requested_.load(std::memory_order_acquire)) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = active_fds_.begin(); it != active_fds_.end(); ++it) {
      if (*it == fd) {
        active_fds_.erase(it);
        break;
      }
    }
    --active_connections_;
    finished_workers_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

void SkylineServer::ReapFinishedWorkers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::thread::id id : finished_workers_) {
      for (auto it = workers_.begin(); it != workers_.end(); ++it) {
        if (it->get_id() == id) {
          finished.push_back(std::move(*it));
          workers_.erase(it);
          break;
        }
      }
    }
    finished_workers_.clear();
  }
  // Each has left its bookkeeping and only closes its fd, so these joins
  // return promptly.
  for (std::thread& worker : finished) worker.join();
}

size_t SkylineServer::worker_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

bool SkylineServer::TryAcquireQuerySlot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_queries_ >= options_.max_concurrent_queries) {
    ++counters_.admission_rejected;
    return false;
  }
  ++active_queries_;
  ++counters_.queries_started;
  return true;
}

void SkylineServer::ReleaseQuerySlot() {
  std::lock_guard<std::mutex> lock(mu_);
  --active_queries_;
}

std::string SkylineServer::HandleRequest(Session* session,
                                         const std::string& payload) {
  Result<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& request = *parsed;
  if (!request.is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request must be a JSON object"));
  }
  const std::string op = request.GetString("op", "query");
  if (op == "query") return HandleQuery(session, request);
  if (op == "ping") {
    JsonWriter json;
    json.BeginObject();
    json.KeyValue("ok", true);
    json.KeyValue("pong", true);
    json.EndObject();
    return json.TakeString();
  }
  if (op == "stats") {
    const Counters counters = this->counters();
    const Engine::CacheCounters cache = options_.engine->cache_counters();
    JsonWriter json;
    json.BeginObject();
    json.KeyValue("ok", true);
    json.Key("server");
    json.BeginObject();
    json.KeyValue("connections_accepted", counters.connections_accepted);
    json.KeyValue("connections_rejected", counters.connections_rejected);
    json.KeyValue("queries_started", counters.queries_started);
    json.KeyValue("queries_ok", counters.queries_ok);
    json.KeyValue("queries_error", counters.queries_error);
    json.KeyValue("admission_rejected", counters.admission_rejected);
    json.KeyValue("queries_timed_out", counters.queries_timed_out);
    json.EndObject();
    json.Key("cache");
    json.BeginObject();
    json.KeyValue("hits", cache.hits);
    json.KeyValue("misses", cache.misses);
    json.KeyValue("invalidations", cache.invalidations);
    json.KeyValue("patched", cache.patched);
    json.KeyValue("repaired", cache.repaired);
    json.KeyValue("evictions", cache.evictions);
    json.KeyValue("entries", options_.engine->cache_size());
    json.EndObject();
    json.EndObject();
    return json.TakeString();
  }
  if (op == "shutdown") {
    if (!options_.allow_remote_shutdown) {
      return ErrorResponse(
          Status::NotSupported("remote shutdown is disabled"));
    }
    shutdown_requested_.store(true, std::memory_order_release);
    JsonWriter json;
    json.BeginObject();
    json.KeyValue("ok", true);
    json.KeyValue("shutting_down", true);
    json.EndObject();
    return json.TakeString();
  }
  return ErrorResponse(Status::InvalidArgument("unknown op: " + op));
}

std::string SkylineServer::HandleQuery(Session* session,
                                       const JsonValue& request) {
  const JsonValue* sql_value = request.Find("sql");
  if (sql_value == nullptr || !sql_value->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("query request requires a string \"sql\""));
  }
  const std::string& sql = sql_value->string_value();
  const double timeout_ms = request.GetNumber("timeout_ms", -1);
  const bool include_rows = request.GetBool("include_rows", true);
  const bool include_report = request.GetBool("include_report", true);

  if (!TryAcquireQuerySlot()) {
    return ErrorResponse(Status::ResourceExhausted(
        "server is at its concurrent-query limit; retry"));
  }

  // Arm the per-query deadline on the session's cancellation hook. The
  // engine's long loops poll it, so an overrunning query aborts with
  // kCancelled instead of holding its admission slot. timeout_ms = 0 is
  // the deterministic probe: cancelled at the very first poll.
  if (timeout_ms == 0) {
    session->exec().cancelled = [] { return true; };
  } else if (timeout_ms > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(timeout_ms * 1000));
    session->exec().cancelled = [deadline] {
      return std::chrono::steady_clock::now() >= deadline;
    };
  } else {
    session->exec().cancelled = nullptr;
  }

  std::vector<std::string> column_names;
  std::vector<ColumnType> column_types;
  std::vector<std::vector<Cell>> rows;
  auto visitor = [&](const RowView& row) {
    const Schema& schema = row.schema();
    if (column_names.empty()) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        column_names.push_back(schema.column(c).name);
        column_types.push_back(schema.column(c).type);
      }
    }
    if (!include_rows) return Status::OK();
    std::vector<Cell> cells(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      Cell& cell = cells[c];
      switch (schema.column(c).type) {
        case ColumnType::kInt32:
          cell.kind = Cell::Kind::kInt;
          cell.i = row.GetInt32(c);
          break;
        case ColumnType::kInt64:
          cell.kind = Cell::Kind::kInt;
          cell.i = row.GetInt64(c);
          break;
        case ColumnType::kFloat64:
          cell.kind = Cell::Kind::kDouble;
          cell.d = row.GetFloat64(c);
          break;
        case ColumnType::kFixedString:
          cell.kind = Cell::Kind::kText;
          cell.s = row.GetString(c);
          break;
      }
    }
    rows.push_back(std::move(cells));
    return Status::OK();
  };

  const auto started = std::chrono::steady_clock::now();
  Session::Outcome outcome;
  const Status status = session->Execute(sql, visitor, &outcome);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  session->exec().cancelled = nullptr;
  ReleaseQuerySlot();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++counters_.queries_ok;
    } else {
      ++counters_.queries_error;
      if (status.IsCancelled() && timeout_ms >= 0) {
        ++counters_.queries_timed_out;
      }
    }
  }
  if (!status.ok()) return ErrorResponse(status);

  JsonWriter json;
  json.BeginObject();
  json.KeyValue("ok", true);
  if (!column_names.empty()) {
    json.Key("columns");
    json.BeginArray();
    for (const std::string& name : column_names) json.Value(name);
    json.EndArray();
  }
  if (include_rows && !outcome.write) {
    json.Key("rows");
    json.BeginArray();
    for (const std::vector<Cell>& row : rows) {
      json.BeginArray();
      for (const Cell& cell : row) EmitCell(&json, cell);
      json.EndArray();
    }
    json.EndArray();
  }
  json.KeyValue("rows_emitted", outcome.rows_emitted);
  if (outcome.write) {
    json.KeyValue("rows_affected", outcome.rows_affected);
    json.KeyValue("table_version", outcome.mutation.version);
  }
  if (!outcome.info.plan_text.empty()) {
    json.KeyValue("plan_text", outcome.info.plan_text);
  }
  if (include_report) {
    const Engine::CacheCounters cache =
        options_.engine->cache_counters();
    const Counters counters = this->counters();
    RunReport report;
    report.tool = "skyline_server";
    report.algorithm = SkylineAlgorithmName(session->options().algorithm);
    report.wall_seconds = wall_seconds;
    report.labels.emplace_back(
        "result_cache",
        outcome.write
            ? "write"
            : (outcome.cache_eligible ? (outcome.cache_hit ? "hit" : "miss")
                                      : "bypass"));
    report.numbers.emplace_back("cache_hits", cache.hits);
    report.numbers.emplace_back("cache_misses", cache.misses);
    report.numbers.emplace_back("cache_invalidations", cache.invalidations);
    report.numbers.emplace_back("cache_patched", cache.patched);
    report.numbers.emplace_back("cache_repaired", cache.repaired);
    report.numbers.emplace_back("cache_evictions", cache.evictions);
    report.numbers.emplace_back("admission_rejected",
                                counters.admission_rejected);
    if (outcome.write) {
      report.numbers.emplace_back("entries_patched",
                                  outcome.mutation.entries_patched);
      report.numbers.emplace_back("entries_repaired",
                                  outcome.mutation.entries_repaired);
      report.numbers.emplace_back("entries_invalidated",
                                  outcome.mutation.entries_invalidated);
    }
    report.plan = outcome.info.plan;
    json.Key("report");
    AppendRunReportObject(&json, report);
  }
  json.EndObject();
  return json.TakeString();
}

}  // namespace skyline
