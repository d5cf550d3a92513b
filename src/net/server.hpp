// net::Server — the TCP front-end that makes a RenderService externally
// reachable.
//
// The connection machinery (epoll loop, buffers, idle/drain timeouts,
// frame/HTTP parsing) lives in net::FrameServer; this class is the
// RenderService adapter on top of it. Render requests are bridged onto
// RenderService::try_submit: a shed job becomes an explicit
// RenderStatus::kOverloaded wire response — admission control the client
// can see and retry, never a silent drop — and job completions re-enter the
// loop through FrameServer::post_deliver (the RenderRequest::on_complete
// hook), so no service worker ever touches a socket. Besides the binary
// protocol the server answers plain `GET /healthz` and `GET /stats` HTTP
// probes with the schema-stamped ServiceStats JSON.
#pragma once

#include <cstdint>
#include <string>

#include "net/frame_server.hpp"
#include "net/protocol.hpp"
#include "runtime/service.hpp"

namespace gaurast::net {

/// ServiceStats JSON with the kServeStatsSchema identifier prepended —
/// the one stats encoding every surface (kStatsResponse frames, the HTTP
/// endpoints, `serve --json`) emits.
std::string stamped_stats_json(const runtime::ServiceStats& stats);

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  int port = 0;
  /// Connections with no traffic and no in-flight jobs for this long are
  /// closed by the loop's tick sweep. 0 disables the sweep.
  int idle_timeout_ms = 30000;
  /// During stop(), a connection with no job in flight whose writes make no
  /// progress for this long is force-closed, independent of idle_timeout_ms
  /// — a peer that never reads must not hang shutdown.
  int drain_timeout_ms = 5000;
  int backlog = 64;
  /// A synthetic scene key naming more Gaussians than this, in either the
  /// `scene` or the legacy gaussian_count spelling, is refused with
  /// kServerError before any scene is generated (a wire-reachable
  /// allocation guard).
  std::uint64_t max_gaussian_count = 10'000'000;
  /// Deadline budget (ms) applied to requests that carry none
  /// (wire deadline_ms == 0). 0 = no default: undeadlined requests render
  /// unconditionally. Requests with their own budget keep it.
  int default_deadline_ms = 0;
};

class Server : private FrameHandler {
 public:
  /// The service must outlive the server. start() is not implicit.
  Server(runtime::RenderService& service, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the loop thread. Throws gaurast::Error on
  /// socket failures (e.g. port in use).
  void start();

  /// Graceful shutdown: stops accepting, lets the service drain every
  /// accepted job, flushes each connection's pending responses, then joins
  /// the loop thread. Idempotent.
  void stop();

  /// The bound port (resolves ephemeral binds). Valid after start().
  int port() const { return front_.port(); }
  const ServerConfig& config() const { return config_; }

 private:
  // FrameHandler (loop thread).
  void on_frame(std::uint64_t conn_id, const FrameHeader& header,
                const std::uint8_t* payload) override;
  void on_http_get(std::uint64_t conn_id, const std::string& target) override;

  void handle_render(std::uint64_t conn_id, RenderRequest wire);

  static FrameServerConfig front_config(const ServerConfig& config);

  runtime::RenderService& service_;
  ServerConfig config_;
  FrameServer front_;
};

}  // namespace gaurast::net
