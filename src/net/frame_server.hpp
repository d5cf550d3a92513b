// net::FrameServer — the reusable TCP front-end every gaurast wire endpoint
// shares (the single-process net::Server and the cluster::Router both build
// on it).
//
// One EventLoop thread owns the listen socket and every connection
// (per-connection read/write buffers, idle timeouts, frame/HTTP parsing).
// What a frame *means* is the application's business: complete,
// header-validated frames and parsed HTTP GET targets are handed to a
// FrameHandler, which answers either synchronously (respond / respond_http)
// or asynchronously (add_pending now, post_deliver later from any thread —
// the wakeup-pipe completion bridge). Keeping this machinery in one place
// keeps raw socket syscalls confined to src/net (the raw-sockets lint
// invariant) and means connection-lifetime hardening is fixed once, not per
// front-end.
//
// Threading: all connection state is confined to the loop thread;
// cross-thread traffic goes through EventLoop::post. The only server-level
// mutex guards the started/stopped lifecycle flags.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>  // lint-invariants: allow(raw-concurrency)
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"

namespace gaurast::net {

struct FrameServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; FrameServer::port() reports the actual one.
  int port = 0;
  /// Connections with no traffic and no in-flight work for this long are
  /// closed by the loop's tick sweep. 0 disables the sweep.
  int idle_timeout_ms = 30000;
  /// During stop(), a connection with no work in flight whose writes make no
  /// progress for this long is force-closed, independent of idle_timeout_ms
  /// — a peer that never reads must not hang shutdown.
  int drain_timeout_ms = 5000;
  int backlog = 64;
};

/// The application seam. Both callbacks run on the loop thread and identify
/// the connection by its stable id — never by fd or reference, so a handler
/// outcome that arrives after the connection died resolves to "gone".
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// One complete binary frame (header already validated by decode_header).
  /// Throwing ProtocolError rejects it per the wire contract (kError frame,
  /// close after flush). A handler that defers the answer must call
  /// add_pending() before returning and finish with post_deliver() later.
  virtual void on_frame(std::uint64_t conn_id, const FrameHeader& header,
                        const std::uint8_t* payload) = 0;

  /// One parsed HTTP GET target (e.g. "/healthz"). Same response options:
  /// respond_http() now, or add_pending() + post_deliver_http() later.
  virtual void on_http_get(std::uint64_t conn_id,
                           const std::string& target) = 0;
};

class FrameServer {
 public:
  /// The handler must outlive the server. start() is not implicit.
  FrameServer(FrameHandler& handler, FrameServerConfig config);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and spawns the loop thread. Throws gaurast::Error on
  /// socket failures (e.g. port in use).
  void start() GAURAST_EXCLUDES(state_mutex_);

  /// Graceful shutdown: stops accepting and reading, runs `drain` (the
  /// owner's hook to finish all deferred work — every post_deliver must land
  /// before it returns), flushes each connection's pending responses, then
  /// joins the loop thread. Idempotent; `drain` runs at most once.
  void stop(const std::function<void()>& drain = {})
      GAURAST_EXCLUDES(state_mutex_);

  /// The bound port (resolves ephemeral binds). Valid after start().
  int port() const { return port_; }
  const FrameServerConfig& config() const { return config_; }
  EventLoop& loop() { return loop_; }

  // Handler-side operations. Loop thread only:

  /// Queues a serialized frame (or raw bytes) on the connection.
  void respond(std::uint64_t conn_id, std::vector<std::uint8_t> frame);
  /// Queues a full HTTP response (status like "200 OK") and marks the
  /// connection close-after-flush — one probe per connection.
  void respond_http(std::uint64_t conn_id, const std::string& status,
                    const std::string& body);
  /// Serializes a kError frame, queues it, and marks the connection for
  /// close-after-flush — the malformed-frame contract.
  void protocol_error(std::uint64_t conn_id, const std::string& message);
  /// Marks one unit of deferred work in flight on the connection: the idle
  /// sweep spares it and shutdown waits for it until a deliver arrives.
  void add_pending(std::uint64_t conn_id);
  /// Completes one pending unit with a frame. Loop thread only.
  void deliver(std::uint64_t conn_id, std::vector<std::uint8_t> frame);
  /// Completes one pending unit with an HTTP response. Loop thread only.
  void deliver_http(std::uint64_t conn_id, const std::string& status,
                    const std::string& body);

  // Any-thread completion bridges (EventLoop::post under the hood):
  void post_deliver(std::uint64_t conn_id, std::vector<std::uint8_t> frame);
  void post_deliver_http(std::uint64_t conn_id, const std::string& status,
                         const std::string& body);

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-connection state, loop-thread-confined. Keyed by a monotonically
  /// increasing id (never a reused fd), so a completion posted for a
  /// connection that died in the meantime resolves to "gone", not to an
  /// unrelated client.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> read_buf;
    std::vector<std::uint8_t> write_buf;
    std::size_t write_pos = 0;
    Clock::time_point last_activity;
    int pending = 0;          ///< deferred answers owed (add_pending)
    bool http = false;        ///< speaking HTTP, not the binary protocol
    bool closing = false;     ///< close once flushed and nothing pending
    bool want_write = false;  ///< EPOLLOUT currently registered
  };

  // Everything below runs on the loop thread.
  void handle_accept();
  void handle_conn_event(std::uint64_t conn_id, std::uint32_t events);
  void process_read_buffer(Connection& conn);
  void handle_http(Connection& conn);
  void flush_writes(Connection& conn);
  /// Applies the unified close condition (closing + flushed + idle).
  void maybe_close(Connection& conn);
  void close_connection(std::uint64_t conn_id);
  void on_tick();
  void begin_shutdown();
  void maybe_finish_shutdown();

  FrameHandler& handler_;
  FrameServerConfig config_;
  EventLoop loop_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> conns_;
  bool draining_ = false;

  // The loop thread is the module's one sanctioned std::thread: the epoll
  // reactor needs a dedicated runner, and common::parallel_for_workers is a
  // fork-join pool for chunked work, not a dedicated event thread.
  std::thread loop_thread_;  // lint-invariants: allow(raw-concurrency)

  mutable common::Mutex state_mutex_;
  bool running_ GAURAST_GUARDED_BY(state_mutex_) = false;
};

}  // namespace gaurast::net
