#ifndef SKYLINE_SERVER_SERVER_H_
#define SKYLINE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "sql/engine.h"

namespace skyline {

/// Long-running TCP query server over one Engine: tables and caches stay
/// resident across connections, each connection gets its own Session
/// (thread-per-connection), and concurrent query execution is bounded by
/// an admission-controlled slot pool — a query that cannot get a slot is
/// rejected immediately with a ResourceExhausted response rather than
/// queued without bound.
///
/// Per-query deadlines ride the Session's ExecContext cancellation hook:
/// `timeout_ms` in the request arms a monotonic deadline that the engine's
/// long loops poll, so an overrunning query aborts with kCancelled instead
/// of holding its slot indefinitely (timeout_ms = 0 cancels at the first
/// poll — a deterministic probe the tests use).
///
/// Wire protocol: see server/protocol.h.
class SkylineServer {
 public:
  struct Options {
    /// Engine to serve; borrowed, required, must outlive the server.
    Engine* engine = nullptr;
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read the
    /// bound port from port() after Start()).
    uint16_t port = 0;
    /// Concurrent connections beyond this are accepted and immediately
    /// told the server is full (then closed).
    size_t max_connections = 64;
    /// Concurrent *executing queries* (admission slots). Connections
    /// beyond this hold no resources until they send a request; a request
    /// that finds no free slot is rejected, not queued.
    size_t max_concurrent_queries = 4;
    /// Session template applied to every connection (algorithm, threads,
    /// cache policy).
    Session::Options session;
    /// Allow {"op": "shutdown"} requests to stop the server (handy for
    /// scripted smoke tests; off for long-lived deployments).
    bool allow_remote_shutdown = false;
  };

  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;
    uint64_t queries_started = 0;
    uint64_t queries_ok = 0;
    uint64_t queries_error = 0;
    /// Requests bounced by admission control (no free query slot).
    uint64_t admission_rejected = 0;
    /// Queries aborted by their deadline.
    uint64_t queries_timed_out = 0;
  };

  explicit SkylineServer(const Options& options);
  ~SkylineServer();

  SkylineServer(const SkylineServer&) = delete;
  SkylineServer& operator=(const SkylineServer&) = delete;

  /// Binds, listens, and starts the accept thread. InvalidArgument without
  /// an engine; IoError when the port cannot be bound.
  Status Start();

  /// Stops accepting, closes every active connection, and joins all
  /// threads. Idempotent; also runs on destruction.
  void Stop();

  /// True between a successful Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once an authorized {"op": "shutdown"} request arrived. The
  /// owner's run loop polls this and calls Stop() — a connection handler
  /// cannot join its own thread.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// The bound port (after Start(); useful with Options::port = 0).
  uint16_t port() const { return port_; }

  Counters counters() const;

  /// Connection threads the server still holds: live ones plus finished
  /// ones not yet joined. Finished threads are joined as the next
  /// connection arrives, so this tracks concurrent connections, not the
  /// number ever accepted.
  size_t worker_threads() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Joins the connection threads that have finished serving.
  void ReapFinishedWorkers();
  /// Executes one parsed request document, returning the response JSON.
  std::string HandleRequest(Session* session, const std::string& payload);
  std::string HandleQuery(Session* session, const class JsonValue& request);

  bool TryAcquireQuerySlot();
  void ReleaseQuerySlot();

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::vector<std::thread> workers_;  // reaped on accept, joined by Stop()
  /// Workers that have finished serving and await a join.
  std::vector<std::thread::id> finished_workers_;
  std::vector<int> active_fds_;       // closed by Stop() to unblock reads
  size_t active_connections_ = 0;
  size_t active_queries_ = 0;
  Counters counters_;
};

}  // namespace skyline

#endif  // SKYLINE_SERVER_SERVER_H_
