#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "gtest/gtest.h"
#include "relation/table.h"
#include "server/protocol.h"
#include "test_util.h"

namespace skyline {
namespace {

// End-to-end over a real loopback socket and an ephemeral port: framing,
// query/ping/stats ops, cached responses byte-identical across requests,
// writes through the maintenance path, admission control, per-query
// deadlines, and shutdown.

/// One client connection: frames requests out, frames responses in.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends `request` and returns the raw response payload.
  Result<std::string> Call(const std::string& request) {
    if (fd_ < 0) return Status::IoError("client is not connected");
    SKYLINE_RETURN_IF_ERROR(WriteFrame(fd_, request));
    std::string payload;
    SKYLINE_RETURN_IF_ERROR(ReadFrame(fd_, &payload));
    return payload;
  }

  /// Sends a query op and returns the raw response payload.
  Result<std::string> Query(const std::string& sql, long timeout_ms = -1,
                            bool include_report = false) {
    JsonWriter request;
    request.BeginObject();
    request.KeyValue("op", "query");
    request.KeyValue("sql", sql);
    if (timeout_ms >= 0) {
      request.KeyValue("timeout_ms", static_cast<int64_t>(timeout_ms));
    }
    request.KeyValue("include_report", include_report);
    request.EndObject();
    return Call(request.str());
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Parses a response and returns its "ok" verdict.
bool ResponseOk(const std::string& payload) {
  auto parsed = ParseJson(payload);
  return parsed.ok() && parsed.value().GetBool("ok", false);
}

std::string ErrorCode(const std::string& payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) return "<unparseable>";
  const JsonValue* error = parsed.value().Find("error");
  if (error == nullptr) return "<no-error-member>";
  return error->GetString("code", "<no-code>");
}

std::string ErrorMessage(const std::string& payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) return "<unparseable>";
  const JsonValue* error = parsed.value().Find("error");
  if (error == nullptr) return "<no-error-member>";
  return error->GetString("message", "<no-message>");
}

/// The process's live thread count, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Engine::Options options;
    options.env = env_.get();
    options.write_sidecars = false;
    engine_ = std::make_unique<Engine>(options);
    ASSERT_OK(engine_->CreateTableFromCsv("T",
                                          "a,b,c\n"
                                          "5,1,10\n"
                                          "1,5,20\n"
                                          "3,3,30\n"
                                          "2,2,40\n"));
  }

  /// Starts a server on an ephemeral port with `mutate` applied to the
  /// default options first.
  void StartServer(
      const std::function<void(SkylineServer::Options*)>& mutate = nullptr) {
    SkylineServer::Options options;
    options.engine = engine_.get();
    options.port = 0;
    if (mutate) mutate(&options);
    server_ = std::make_unique<SkylineServer>(options);
    ASSERT_OK(server_->Start());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SkylineServer> server_;
};

const char kQuery[] = "SELECT * FROM T SKYLINE OF a MAX, b MAX";

TEST_F(ServerTest, PingStatsAndUnknownOp) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
  EXPECT_TRUE(ResponseOk(pong));

  ASSERT_OK_AND_ASSIGN(std::string stats, client.Call(R"({"op": "stats"})"));
  ASSERT_TRUE(ResponseOk(stats));
  ASSERT_OK_AND_ASSIGN(JsonValue doc, ParseJson(stats));
  ASSERT_NE(doc.Find("server"), nullptr);
  ASSERT_NE(doc.Find("cache"), nullptr);
  EXPECT_GE(doc.Find("server")->GetNumber("connections_accepted", -1), 1.0);

  ASSERT_OK_AND_ASSIGN(std::string bad, client.Call(R"({"op": "dance"})"));
  EXPECT_FALSE(ResponseOk(bad));
  EXPECT_EQ(ErrorCode(bad), "InvalidArgument");
}

TEST_F(ServerTest, MalformedFramesReportErrors) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string not_json, client.Call("{{{"));
  EXPECT_FALSE(ResponseOk(not_json));
  ASSERT_OK_AND_ASSIGN(std::string no_sql, client.Call(R"({"op": "query"})"));
  EXPECT_FALSE(ResponseOk(no_sql));
  ASSERT_OK_AND_ASSIGN(std::string bad_sql, client.Query("SELECT FROM"));
  EXPECT_FALSE(ResponseOk(bad_sql));
  EXPECT_EQ(ErrorCode(bad_sql), "InvalidArgument");
  // The connection survives every error above.
  ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
  EXPECT_TRUE(ResponseOk(pong));
}

TEST_F(ServerTest, PingRoundTripsBeatOneDelayedAck) {
  // A frame split over two sends waits out the peer's delayed ACK (40+
  // ms) on every round trip; one send per frame takes loopback well
  // under a millisecond. 5 ms leaves room for sanitizer builds.
  StartServer();
  TestClient client(server_->port());
  std::vector<double> round_trip_ms;
  for (int i = 0; i < 50; ++i) {
    const auto started = std::chrono::steady_clock::now();
    ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - started)
                                .count());
    ASSERT_TRUE(ResponseOk(pong));
  }
  auto median = round_trip_ms.begin() + round_trip_ms.size() / 2;
  std::nth_element(round_trip_ms.begin(), median, round_trip_ms.end());
  EXPECT_LT(*median, 5.0);
}

TEST_F(ServerTest, OversizedResponseGetsErrorFrameAndConnectionSurvives) {
  // 20k mutually incomparable rows (x ascends while y descends), each
  // carrying a filled 1000-byte string: the full skyline renders past the
  // 16 MiB frame cap.
  constexpr int kRows = 20000;
  ASSERT_OK_AND_ASSIGN(
      Schema schema,
      Schema::Make({ColumnDef::Int32("x"), ColumnDef::Int32("y"),
                    ColumnDef::FixedString("payload", 1000)}));
  TableBuilder builder(env_.get(), "wide", schema);
  ASSERT_OK(builder.Open());
  RowBuffer row(&builder.schema());
  const std::string filler(1000, 'p');
  for (int i = 0; i < kRows; ++i) {
    row.SetInt32(0, i);
    row.SetInt32(1, kRows - i);
    row.SetString(2, filler);
    ASSERT_OK(builder.Append(row));
  }
  ASSERT_OK_AND_ASSIGN(Table table, builder.Finish());
  ASSERT_OK(engine_->CreateTable("Wide", std::move(table)));

  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(
      std::string payload,
      client.Query("SELECT * FROM Wide SKYLINE OF x MAX, y MAX"));
  EXPECT_FALSE(ResponseOk(payload));
  EXPECT_EQ(ErrorCode(payload), "ResourceExhausted");
  const std::string message = ErrorMessage(payload);
  EXPECT_NE(message.find("exceeds the " + std::to_string(kMaxFrameBytes) +
                         "-byte frame limit"),
            std::string::npos)
      << message;
  // The refused frame sent nothing, so the same connection still serves.
  ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
  EXPECT_TRUE(ResponseOk(pong));
}

TEST_F(ServerTest, FinishedConnectionThreadsAreReaped) {
  StartServer();
  const int threads_before = ProcessThreads();
  ASSERT_GT(threads_before, 0);
  for (int i = 0; i < 200; ++i) {
    TestClient client(server_->port());
    ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
    ASSERT_TRUE(ResponseOk(pong));
  }
  // An exited thread leaves the kernel's count at once, joined or not, so
  // the held std::thread objects are checked directly: only the last few
  // connections' threads may still await their join.
  EXPECT_LE(server_->worker_threads(), 4u);
  EXPECT_LE(ProcessThreads(), threads_before + 4);
}

TEST_F(ServerTest, CachedResponsesAreByteIdentical) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string cold, client.Query(kQuery));
  ASSERT_TRUE(ResponseOk(cold));
  // Hit after miss, same connection and a fresh one: all byte-identical
  // (the report is excluded — it carries wall times).
  ASSERT_OK_AND_ASSIGN(std::string warm, client.Query(kQuery));
  EXPECT_EQ(warm, cold);
  TestClient other(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string cross, other.Query(kQuery));
  EXPECT_EQ(cross, cold);
  const Engine::CacheCounters counters = engine_->cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 2u);
}

TEST_F(ServerTest, ReportCarriesCacheAndAdmissionCounters) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string ignored, client.Query(kQuery));
  ASSERT_OK_AND_ASSIGN(std::string payload,
                       client.Query(kQuery, /*timeout_ms=*/-1,
                                    /*include_report=*/true));
  ASSERT_TRUE(ResponseOk(payload));
  ASSERT_OK_AND_ASSIGN(JsonValue doc, ParseJson(payload));
  const JsonValue* report = doc.Find("report");
  ASSERT_NE(report, nullptr);
  const JsonValue* labels = report->Find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->GetString("result_cache", ""), "hit");
  const JsonValue* numbers = report->Find("numbers");
  ASSERT_NE(numbers, nullptr);
  EXPECT_EQ(numbers->GetNumber("cache_hits", -1), 1.0);
  EXPECT_EQ(numbers->GetNumber("cache_misses", -1), 1.0);
  EXPECT_EQ(numbers->GetNumber("admission_rejected", -1), 0.0);
}

TEST_F(ServerTest, WritesFlowThroughMaintenance) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string before, client.Query(kQuery));

  ASSERT_OK_AND_ASSIGN(std::string write,
                       client.Query("INSERT INTO T VALUES (9, 9, 99)"));
  ASSERT_TRUE(ResponseOk(write));
  ASSERT_OK_AND_ASSIGN(JsonValue doc, ParseJson(write));
  EXPECT_EQ(doc.GetNumber("rows_affected", -1), 1.0);
  EXPECT_EQ(doc.GetNumber("table_version", -1), 2.0);

  // The patched cache serves the post-insert skyline: only (9,9,99).
  ASSERT_OK_AND_ASSIGN(std::string after, client.Query(kQuery));
  EXPECT_NE(after, before);
  ASSERT_OK_AND_ASSIGN(JsonValue after_doc, ParseJson(after));
  EXPECT_EQ(after_doc.GetNumber("rows_emitted", -1), 1.0);
  EXPECT_EQ(engine_->cache_counters().patched, 1u);

  ASSERT_OK_AND_ASSIGN(std::string del,
                       client.Query("DELETE FROM T WHERE c = 99"));
  ASSERT_TRUE(ResponseOk(del));
  ASSERT_OK_AND_ASSIGN(std::string restored, client.Query(kQuery));
  // Byte-identical to the original response: the repair recomputed the
  // same skyline at version 3 and canonical order is stats-independent.
  EXPECT_EQ(restored, before);
}

TEST_F(ServerTest, TimeoutZeroCancelsDeterministically) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string payload,
                       client.Query(kQuery, /*timeout_ms=*/0));
  EXPECT_FALSE(ResponseOk(payload));
  EXPECT_EQ(ErrorCode(payload), "Cancelled");
  EXPECT_EQ(server_->counters().queries_timed_out, 1u);
  // The slot was released: the next query runs fine.
  ASSERT_OK_AND_ASSIGN(std::string good, client.Query(kQuery));
  EXPECT_TRUE(ResponseOk(good));
}

TEST_F(ServerTest, AdmissionControlRejectsWhenSaturated) {
  // Zero slots: every query bounces immediately — deterministic stand-in
  // for "all slots busy" (same code path, no timing dependence).
  StartServer([](SkylineServer::Options* options) {
    options->max_concurrent_queries = 0;
  });
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string payload, client.Query(kQuery));
  EXPECT_FALSE(ResponseOk(payload));
  EXPECT_EQ(ErrorCode(payload), "ResourceExhausted");
  EXPECT_EQ(server_->counters().admission_rejected, 1u);
  // Non-query ops are not admission-controlled.
  ASSERT_OK_AND_ASSIGN(std::string pong, client.Call(R"({"op": "ping"})"));
  EXPECT_TRUE(ResponseOk(pong));
}

TEST_F(ServerTest, ConnectionLimitRejectsExtraClients) {
  StartServer([](SkylineServer::Options* options) {
    options->max_connections = 1;
  });
  TestClient first(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string pong, first.Call(R"({"op": "ping"})"));
  ASSERT_TRUE(ResponseOk(pong));
  // The second connection is told the server is full and closed.
  TestClient second(server_->port());
  std::string payload;
  Status status = ReadFrame(second.fd(), &payload);
  ASSERT_OK(status);
  EXPECT_FALSE(ResponseOk(payload));
  EXPECT_EQ(ErrorCode(payload), "ResourceExhausted");
  EXPECT_GE(server_->counters().connections_rejected, 1u);
}

TEST_F(ServerTest, ShutdownOpGatedByOption) {
  StartServer();  // allow_remote_shutdown defaults to false
  {
    TestClient client(server_->port());
    ASSERT_OK_AND_ASSIGN(std::string denied,
                         client.Call(R"({"op": "shutdown"})"));
    EXPECT_FALSE(ResponseOk(denied));
    EXPECT_FALSE(server_->shutdown_requested());
  }
  server_->Stop();

  StartServer([](SkylineServer::Options* options) {
    options->allow_remote_shutdown = true;
  });
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string granted,
                       client.Call(R"({"op": "shutdown"})"));
  EXPECT_TRUE(ResponseOk(granted));
  EXPECT_TRUE(server_->shutdown_requested());
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, ConcurrentClientsMixedReadWrite) {
  StartServer([](SkylineServer::Options* options) {
    options->max_concurrent_queries = 8;
    options->max_connections = 32;
  });
  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      TestClient client(server_->port());
      for (int q = 0; q < kQueriesPerClient; ++q) {
        std::string sql = kQuery;
        if (c == 0 && q % 2 == 1) {
          // One writer thread interleaves inserts of dominated rows: the
          // cached skyline is patched (unchanged) every time.
          sql = "INSERT INTO T VALUES (1, 1, " + std::to_string(100 + q) +
                ")";
        }
        auto payload = client.Query(sql);
        if (!payload.ok() || !ResponseOk(payload.value())) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const SkylineServer::Counters counters = server_->counters();
  EXPECT_EQ(counters.queries_started, counters.queries_ok);
  EXPECT_EQ(counters.queries_error, 0u);
  // Every read after the first served the (possibly patched) cache entry.
  EXPECT_GT(engine_->cache_counters().hits, 0u);

  // Correctness after the dust settles: the skyline is still the original
  // three maxima (every insert was dominated).
  TestClient client(server_->port());
  ASSERT_OK_AND_ASSIGN(std::string payload, client.Query(kQuery));
  ASSERT_OK_AND_ASSIGN(JsonValue doc, ParseJson(payload));
  EXPECT_EQ(doc.GetNumber("rows_emitted", -1), 3.0);
}

}  // namespace
}  // namespace skyline
