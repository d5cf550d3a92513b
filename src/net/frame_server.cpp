#include "net/frame_server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace gaurast::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

FrameServer::FrameServer(FrameHandler& handler, FrameServerConfig config)
    : handler_(handler), config_(std::move(config)) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::start() {
  {
    common::MutexLock lock(state_mutex_);
    GAURAST_CHECK(!running_);
    running_ = true;
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw Error("invalid listen host '" + config_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      listen(listen_fd_, config_.backlog) < 0) {
    const int saved = errno;
    close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno(("listen on " + config_.host).c_str());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  loop_.add_fd(listen_fd_, kReadable, [this](std::uint32_t) {
    handle_accept();
  });
  // Tick often enough that an idle timeout is enforced within ~a quarter of
  // its length, but never busier than 10ms.
  int tick_ms = 250;
  if (config_.idle_timeout_ms > 0) {
    tick_ms = std::clamp(config_.idle_timeout_ms / 4, 10, 250);
  }
  loop_.set_tick([this] { on_tick(); }, tick_ms);
  loop_thread_ =
      std::thread([this] {  // lint-invariants: allow(raw-concurrency)
        try {
          loop_.run();
        } catch (const std::exception& e) {
          // A reactor-level failure (not a per-connection one) is fatal to
          // serving; surface it rather than dying silently.
          std::cerr << "net::FrameServer loop failed: " << e.what() << "\n";
        }
      });
}

void FrameServer::stop(const std::function<void()>& drain) {
  {
    common::MutexLock lock(state_mutex_);
    if (!running_) return;
    running_ = false;
  }
  // Ordering: (1) stop accepting and stop reading new frames, (2) let the
  // owner finish every deferred answer — each post_deliver lands on the
  // loop before drain() returns — then (3) a sentinel task behind those
  // posts flushes and closes. The loop exits once every connection has
  // drained.
  loop_.post([this] { begin_shutdown(); });
  if (drain) drain();
  loop_.post([this] { maybe_finish_shutdown(); });
  // start() may have thrown before the loop thread was spawned; joining a
  // non-joinable thread from the destructor would terminate the process.
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrameServer::handle_accept() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failures (ECONNABORTED, ...) — keep serving
    }
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    conn.last_activity = Clock::now();
    conns_.emplace(id, std::move(conn));
    loop_.add_fd(fd, kReadable, [this, id](std::uint32_t events) {
      handle_conn_event(id, events);
    });
  }
}

void FrameServer::handle_conn_event(std::uint64_t conn_id,
                                    std::uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;

  if (events & kWritable) {
    flush_writes(conn);
    if (conns_.find(conn_id) == conns_.end()) return;  // flush closed it
  }
  if (!(events & kReadable)) return;

  bool peer_closed = false;
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.read_buf.insert(conn.read_buf.end(), buf, buf + n);
      // During draining only write progress counts as activity — otherwise
      // a peer that keeps sending but never reads holds shutdown open.
      if (!draining_) conn.last_activity = Clock::now();
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn_id);  // reset or worse — nothing left to flush
    return;
  }

  if (!conn.closing && !draining_) process_read_buffer(conn);
  if (conns_.find(conn_id) == conns_.end()) return;
  if (peer_closed) {
    conn.closing = true;
    maybe_close(conn);
  }
}

void FrameServer::process_read_buffer(Connection& conn) {
  // HTTP probe detection: the binary protocol's magic can never start with
  // ASCII "GET ", so sniffing the first bytes is unambiguous.
  if (!conn.http && conn.read_buf.size() >= 4 &&
      std::memcmp(conn.read_buf.data(), "GET ", 4) == 0) {
    conn.http = true;
  }
  if (conn.http) {
    handle_http(conn);
    return;
  }

  const std::uint64_t conn_id = conn.id;
  while (!conn.closing && conn.read_buf.size() >= kHeaderBytes) {
    FrameHeader header;
    try {
      header = decode_header(conn.read_buf.data());
    } catch (const ProtocolError& e) {
      protocol_error(conn_id, e.what());
      return;
    }
    const std::size_t total = kHeaderBytes + header.payload_size;
    if (conn.read_buf.size() < total) return;  // wait for the rest
    try {
      handler_.on_frame(conn_id, header, conn.read_buf.data() + kHeaderBytes);
    } catch (const ProtocolError& e) {
      protocol_error(conn_id, e.what());
      return;
    }
    // The handler can erase the connection (respond -> flush_writes ->
    // EPIPE -> close_connection); `conn` dangles then. Map nodes are
    // stable, so if the id is still present the reference is still good.
    if (conns_.find(conn_id) == conns_.end()) return;
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<std::ptrdiff_t>(total));
  }
}

void FrameServer::handle_http(Connection& conn) {
  static const std::uint8_t kTerminator[] = {'\r', '\n', '\r', '\n'};
  auto it = std::search(conn.read_buf.begin(), conn.read_buf.end(),
                        std::begin(kTerminator), std::end(kTerminator));
  if (it == conn.read_buf.end()) {
    if (conn.read_buf.size() > 8192) {
      protocol_error(conn.id, "oversized HTTP request head");
    }
    return;  // headers not complete yet
  }

  const std::string head(conn.read_buf.begin(), it);
  conn.read_buf.clear();
  const std::size_t target_begin = head.find(' ');
  const std::size_t target_end =
      target_begin == std::string::npos
          ? std::string::npos
          : head.find(' ', target_begin + 1);
  std::string target;
  if (target_end != std::string::npos) {
    target = head.substr(target_begin + 1, target_end - target_begin - 1);
  }
  handler_.on_http_get(conn.id, target);
}

void FrameServer::protocol_error(std::uint64_t conn_id,
                                 const std::string& message) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  it->second.closing = true;
  it->second.read_buf.clear();
  respond(conn_id, serialize_error(message));
}

void FrameServer::respond(std::uint64_t conn_id,
                          std::vector<std::uint8_t> frame) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  if (fault::armed()) {
    // The server-side injection seam: every outgoing response (binary and
    // HTTP) passes through here. kDrop — and kError, which has nobody to
    // throw to on the loop thread — severs the connection instead of
    // answering, so the peer sees EOF mid-exchange; kDelay slept inside
    // evaluate(); kCrash never returns (a crashed worker).
    const fault::Hit hit = fault::evaluate("net.server.respond");
    if (hit.action == fault::Action::kDrop ||
        hit.action == fault::Action::kError) {
      close_connection(conn_id);
      return;
    }
    it = conns_.find(conn_id);
    if (it == conns_.end()) return;
  }
  Connection& conn = it->second;
  if (conn.write_buf.empty()) {
    conn.write_buf = std::move(frame);  // the common case: nothing queued
  } else {
    conn.write_buf.insert(conn.write_buf.end(), frame.begin(), frame.end());
  }
  flush_writes(conn);
}

void FrameServer::respond_http(std::uint64_t conn_id,
                               const std::string& status,
                               const std::string& body) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const std::string response =
      "HTTP/1.1 " + status +
      "\r\nContent-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  it->second.closing = true;  // one probe per connection, Connection: close
  respond(conn_id,
          std::vector<std::uint8_t>(response.begin(), response.end()));
}

void FrameServer::add_pending(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ++it->second.pending;
}

void FrameServer::deliver(std::uint64_t conn_id,
                          std::vector<std::uint8_t> frame) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while the work ran
  Connection& conn = it->second;
  --conn.pending;
  respond(conn_id, std::move(frame));
  if (conns_.find(conn_id) != conns_.end() && draining_) {
    conn.closing = true;
    maybe_close(conn);
  }
  if (draining_) maybe_finish_shutdown();
}

void FrameServer::deliver_http(std::uint64_t conn_id,
                               const std::string& status,
                               const std::string& body) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  --it->second.pending;
  respond_http(conn_id, status, body);
  if (draining_) maybe_finish_shutdown();
}

void FrameServer::post_deliver(std::uint64_t conn_id,
                               std::vector<std::uint8_t> frame) {
  loop_.post([this, conn_id, frame = std::move(frame)]() mutable {
    deliver(conn_id, std::move(frame));
  });
}

void FrameServer::post_deliver_http(std::uint64_t conn_id,
                                    const std::string& status,
                                    const std::string& body) {
  loop_.post([this, conn_id, status, body] {
    deliver_http(conn_id, status, body);
  });
}

void FrameServer::flush_writes(Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    const ssize_t n =
        send(conn.fd, conn.write_buf.data() + conn.write_pos,
             conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      conn.last_activity = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        loop_.modify_fd(conn.fd, kReadable | kWritable);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn.id);  // peer gone (EPIPE/ECONNRESET)
    return;
  }
  conn.write_buf.clear();
  conn.write_pos = 0;
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify_fd(conn.fd, kReadable);
  }
  maybe_close(conn);
}

void FrameServer::maybe_close(Connection& conn) {
  if (conn.closing && conn.pending == 0 &&
      conn.write_pos >= conn.write_buf.size()) {
    close_connection(conn.id);
  }
}

void FrameServer::close_connection(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_.remove_fd(it->second.fd);
  close(it->second.fd);
  conns_.erase(it);
  if (draining_) maybe_finish_shutdown();
}

void FrameServer::on_tick() {
  const Clock::time_point now = Clock::now();
  const auto ms_since = [now](Clock::time_point then) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
        .count();
  };
  if (config_.idle_timeout_ms > 0) {
    std::vector<std::uint64_t> idle;
    for (const auto& [id, conn] : conns_) {
      if (conn.pending > 0) continue;  // work in flight is activity
      if (ms_since(conn.last_activity) > config_.idle_timeout_ms) {
        idle.push_back(id);
      }
    }
    for (std::uint64_t id : idle) close_connection(id);
  }
  if (draining_) {
    // Shutdown must terminate even with the idle sweep disabled: a peer
    // that never reads leaves write_buf undrained and maybe_close never
    // fires. Force-close connections with nothing in flight and no send
    // progress within the drain bound.
    std::vector<std::uint64_t> stuck;
    for (const auto& [id, conn] : conns_) {
      if (conn.pending > 0) continue;
      if (ms_since(conn.last_activity) > config_.drain_timeout_ms) {
        stuck.push_back(id);
      }
    }
    for (std::uint64_t id : stuck) close_connection(id);
    maybe_finish_shutdown();
  }
}

void FrameServer::begin_shutdown() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Existing connections: stop consuming new requests (handle_conn_event
  // checks draining_), flush what is owed, close when nothing is in flight.
  std::vector<std::uint64_t> closable;
  for (auto& [id, conn] : conns_) {
    conn.closing = true;
    if (conn.pending == 0 && conn.write_pos >= conn.write_buf.size()) {
      closable.push_back(id);
    }
  }
  for (std::uint64_t id : closable) close_connection(id);
  maybe_finish_shutdown();
}

void FrameServer::maybe_finish_shutdown() {
  if (draining_ && conns_.empty()) loop_.stop();
}

}  // namespace gaurast::net
