// Tests for the gaurast::net subsystem: wire-protocol round-trips and
// malformed-frame rejection (truncated / oversized / bad-magic / wrong
// version / trailing bytes), old-version frames refused with an error
// frame, the server bridge onto RenderService (accept ->
// render -> respond bit-identity against a direct submit), admission
// control (a full queue yields an explicit OVERLOADED wire response), the
// TimeoutError/ConnectionError client failure taxonomy, idle-timeout
// closes, the HTTP stats/health endpoints, graceful shutdown draining
// in-flight work, the Gaussian-count cap, and the frame-size limit on every
// render request.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/backends.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"
#include "scene/generator.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::net;

RenderRequest sample_request() {
  RenderRequest req = default_render_request(1234, 99, 64, 48);
  req.request_id = 77;
  req.flags = kWantImage;
  req.backend = "sw";
  req.kernel = "fast";
  return req;
}

/// Raw TCP connection for injecting malformed bytes (net::Client refuses
/// to build them) and for observing server-initiated closes.
class RawConn {
 public:
  explicit RawConn(int port, int timeout_ms = 3000, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (rcvbuf > 0) {
      // Shrink the receive window (must happen before connect) so a peer
      // that never reads stalls the server's sends quickly.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Closes with an RST (SO_LINGER 0) instead of an orderly FIN.
  void reset() {
    linger lin{};
    lin.l_onoff = 1;
    lin.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof lin);
    ::close(fd_);
    fd_ = -1;
  }

  /// Reads until the peer closes (returns everything received) or the
  /// receive timeout fires (fails the test).
  std::vector<std::uint8_t> read_until_close() {
    std::vector<std::uint8_t> out;
    for (;;) {
      std::uint8_t buf[1024];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        out.insert(out.end(), buf, buf + n);
        continue;
      }
      EXPECT_EQ(n, 0) << "recv timed out before the server closed";
      return out;
    }
  }

  /// Reads exactly one protocol frame (header + payload) off the wire.
  std::vector<std::uint8_t> read_frame() {
    std::vector<std::uint8_t> out(kHeaderBytes);
    read_exact(out.data(), kHeaderBytes);
    const FrameHeader header = decode_header(out.data());
    out.resize(kHeaderBytes + header.payload_size);
    read_exact(out.data() + kHeaderBytes, header.payload_size);
    return out;
  }

 private:
  void read_exact(std::uint8_t* buf, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, buf + got, size - got, 0);
      ASSERT_GT(n, 0) << "peer closed or timed out mid-frame";
      got += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
};

/// Test double whose render blocks on a caller-controlled gate — the lever
/// for holding the service queue full (and jobs in flight) deterministically.
class GatedBackend : public engine::RenderBackend {
 public:
  explicit GatedBackend(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}

  std::string name() const override { return "gated"; }
  std::string describe() const override { return "gated test double"; }
  engine::Capabilities capabilities() const override {
    return sw_.capabilities();
  }
  engine::FrameOutput render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const engine::FrameOptions& options)
      const override {
    entered_.fetch_add(1, std::memory_order_release);
    gate_.wait();
    return sw_.render(scene, camera, options);
  }

  // Blocks until `count` render() calls have started — i.e. that many
  // workers have dequeued a job and are parked on the gate, as opposed to
  // the job still sitting in the service queue. Tests that reason about
  // queue occupancy must wait on this before filling the queue, or a slow
  // worker dequeue frees a slot at the wrong moment.
  void wait_until_rendering(int count) const {
    while (entered_.load(std::memory_order_acquire) < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  engine::SoftwareBackend sw_;
  std::shared_future<void> gate_;
  mutable std::atomic<int> entered_{0};
};

// ---------------------------------------------------------------------------
// Protocol round-trips and malformed-frame rejection
// ---------------------------------------------------------------------------

TEST(Protocol, RenderRequestRoundTrip) {
  const RenderRequest req = sample_request();
  const std::vector<std::uint8_t> frame = serialize(req);
  ASSERT_GE(frame.size(), kHeaderBytes);
  const FrameHeader header = decode_header(frame.data());
  EXPECT_EQ(header.type, MessageType::kRenderRequest);
  EXPECT_EQ(header.payload_size + kHeaderBytes, frame.size());

  const RenderRequest back = deserialize_render_request(
      frame.data() + kHeaderBytes, header.payload_size);
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.width, req.width);
  EXPECT_EQ(back.height, req.height);
  EXPECT_EQ(back.fov_y, req.fov_y);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(back.eye[i], req.eye[i]);
    EXPECT_EQ(back.target[i], req.target[i]);
    EXPECT_EQ(back.up[i], req.up[i]);
  }
  EXPECT_EQ(back.flags, req.flags);
  EXPECT_EQ(back.backend, req.backend);
  EXPECT_EQ(back.kernel, req.kernel);
  EXPECT_EQ(back.scene, "synthetic:1234@99");
}

TEST(Protocol, EmptySceneKeyRejected) {
  RenderRequest req = sample_request();
  req.scene.clear();
  const auto frame = serialize(req);
  const FrameHeader header = decode_header(frame.data());
  EXPECT_THROW(deserialize_render_request(frame.data() + kHeaderBytes,
                                          header.payload_size),
               ProtocolError);
}

TEST(Protocol, RenderResponseRoundTripBitExactPixels) {
  RenderResponse resp;
  resp.request_id = 5;
  resp.status = RenderStatus::kOk;
  resp.job_id = 9;
  resp.latency_ms = 12.5;
  resp.queue_wait_ms = 0.25;
  resp.service_ms = 12.25;
  resp.has_image = true;
  resp.image_width = 2;
  resp.image_height = 1;
  // Awkward float values must survive exactly (IEEE bits, not text).
  resp.pixels = {0.1f, -0.0f, 1e-30f, 3.14159265f, 1e30f, 0.5f};

  const auto frame = serialize(resp);
  const FrameHeader header = decode_header(frame.data());
  ASSERT_EQ(header.type, MessageType::kRenderResponse);
  const RenderResponse back = deserialize_render_response(
      frame.data() + kHeaderBytes, header.payload_size);
  EXPECT_EQ(back.request_id, resp.request_id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.job_id, resp.job_id);
  EXPECT_EQ(back.latency_ms, resp.latency_ms);
  ASSERT_TRUE(back.has_image);
  ASSERT_EQ(back.pixels.size(), resp.pixels.size());
  EXPECT_EQ(std::memcmp(back.pixels.data(), resp.pixels.data(),
                        resp.pixels.size() * sizeof(float)),
            0);
}

TEST(Protocol, RenderResponsePixelsKeepEveryBitPatternLittleEndian) {
  // NaN payloads (quiet, signaling, negative), -0.0, subnormals and +-inf.
  const std::vector<std::uint32_t> bits = {
      0x7fc00001u, 0x7f800001u, 0xffc12345u, 0x80000000u,
      0x00000001u, 0x807fffffu, 0x7f800000u, 0xff800000u,
      0x3f800000u};
  RenderResponse resp;
  resp.status = RenderStatus::kOk;
  resp.has_image = true;
  resp.image_width = 3;
  resp.image_height = 1;
  for (const std::uint32_t b : bits) {
    resp.pixels.push_back(std::bit_cast<float>(b));
  }

  const auto frame = serialize(resp);
  // The pixel block closes the frame, each float's bits little-endian.
  const std::size_t block = frame.size() - bits.size() * 4;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    for (std::size_t byte = 0; byte < 4; ++byte) {
      EXPECT_EQ(frame[block + i * 4 + byte],
                static_cast<std::uint8_t>(bits[i] >> (8 * byte)))
          << "pixel " << i << " byte " << byte;
    }
  }
  const FrameHeader header = decode_header(frame.data());
  EXPECT_EQ(header.payload_size, frame.size() - kHeaderBytes);
  const RenderResponse back = deserialize_render_response(
      frame.data() + kHeaderBytes, header.payload_size);
  ASSERT_EQ(back.pixels.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.pixels[i]), bits[i])
        << "pixel " << i;
  }
}

TEST(Protocol, StatsAndErrorRoundTrip) {
  StatsResponse stats;
  stats.json = "{\"schema\":\"gaurast-serve-stats/v1\",\"completed\":3}";
  const auto stats_frame = serialize(stats);
  const FrameHeader stats_header = decode_header(stats_frame.data());
  ASSERT_EQ(stats_header.type, MessageType::kStatsResponse);
  EXPECT_EQ(deserialize_stats_response(stats_frame.data() + kHeaderBytes,
                                       stats_header.payload_size)
                .json,
            stats.json);

  const auto error_frame = serialize_error("bad frame");
  const FrameHeader error_header = decode_header(error_frame.data());
  ASSERT_EQ(error_header.type, MessageType::kError);
  EXPECT_EQ(deserialize_error(error_frame.data() + kHeaderBytes,
                              error_header.payload_size),
            "bad frame");

  const auto req_frame = serialize_stats_request();
  EXPECT_EQ(decode_header(req_frame.data()).payload_size, 0u);
}

TEST(Protocol, HeaderRejectsMalformedFrames) {
  std::vector<std::uint8_t> frame = serialize_stats_request();

  auto corrupted = [&frame](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = frame;
    bad[offset] = value;
    return bad;
  };

  EXPECT_THROW(decode_header(corrupted(0, 0xFF).data()), ProtocolError);
  EXPECT_THROW(decode_header(corrupted(4, kProtocolVersion + 1).data()),
               ProtocolError);  // unknown version
  EXPECT_THROW(decode_header(corrupted(4, 1).data()), ProtocolError);  // v1
  EXPECT_THROW(decode_header(corrupted(4, 2).data()), ProtocolError);  // v2
  EXPECT_THROW(decode_header(corrupted(4, 3).data()), ProtocolError);  // v3
  EXPECT_THROW(decode_header(corrupted(5, 0).data()), ProtocolError);
  EXPECT_THROW(decode_header(corrupted(5, 99).data()), ProtocolError);
  EXPECT_THROW(decode_header(corrupted(6, 1).data()), ProtocolError);

  // Oversized payload: kMaxPayloadBytes + 1, little-endian at offset 8.
  std::vector<std::uint8_t> oversized = frame;
  const std::uint32_t size = kMaxPayloadBytes + 1;
  std::memcpy(oversized.data() + 8, &size, 4);
  EXPECT_THROW(decode_header(oversized.data()), ProtocolError);
}

TEST(Protocol, TruncatedAndTrailingPayloadsRejected) {
  const auto frame = serialize(sample_request());
  const FrameHeader header = decode_header(frame.data());
  // One byte short of the declared payload: truncated.
  EXPECT_THROW(deserialize_render_request(frame.data() + kHeaderBytes,
                                          header.payload_size - 1),
               ProtocolError);
  // Whole payload plus a stray byte: the decoder must consume exactly.
  std::vector<std::uint8_t> padded(frame.begin() + kHeaderBytes, frame.end());
  padded.push_back(0);
  EXPECT_THROW(deserialize_render_request(padded.data(), padded.size()),
               ProtocolError);
  // Declared string length pointing past the payload end.
  EXPECT_THROW(deserialize_stats_response(frame.data() + kHeaderBytes, 2),
               ProtocolError);
}

TEST(Protocol, TruncatedRequestTailRejected) {
  RenderRequest req = sample_request();
  req.deadline_ms = 250;
  const auto frame = serialize(req);
  const FrameHeader header = decode_header(frame.data());
  EXPECT_EQ(deserialize_render_request(frame.data() + kHeaderBytes,
                                       header.payload_size)
                .deadline_ms,
            250u);
  // The payload ends with deadline_ms u32 and the scene string (a 4-byte
  // length prefix, then its bytes). Cut before either, it is a
  // ProtocolError, never a zero-default.
  const std::size_t scene_bytes = 4 + req.scene.size();
  EXPECT_THROW(deserialize_render_request(frame.data() + kHeaderBytes,
                                          header.payload_size - scene_bytes),
               ProtocolError);  // before `scene`
  EXPECT_THROW(
      deserialize_render_request(frame.data() + kHeaderBytes,
                                 header.payload_size - scene_bytes - 4),
      ProtocolError);  // before `deadline_ms`
}

TEST(Protocol, RenderResponsePixelByteCountOverflowRejected) {
  // 842443544 * 1824726041 * 3 fits u64, but * 4 wraps to 32 — small
  // enough to slip past a naive `count * 4 > size` bound and reach
  // pixels.resize(4.6e18). The decoder must reject it as a ProtocolError,
  // not surface length_error/bad_alloc.
  std::vector<std::uint8_t> p;
  auto le = [&p](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      p.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  le(1, 8);     // request_id
  le(0, 1);     // status = kOk
  le(2, 8);     // job_id
  le(0, 8);     // latency_ms   (0.0 as IEEE-754 bits)
  le(0, 8);     // queue_wait_ms
  le(0, 8);     // service_ms
  le(0, 4);     // message: empty string
  le(1, 1);     // has_image
  le(842443544u, 4);   // width
  le(1824726041u, 4);  // height
  EXPECT_THROW(deserialize_render_response(p.data(), p.size()),
               ProtocolError);
}

TEST(Protocol, DefaultRenderRequestReproducesDefaultCamera) {
  const RenderRequest req = default_render_request(1000, 42, 320, 240);
  const scene::Camera wire_camera = req.camera();
  const scene::Camera local = scene::default_camera({}, 320, 240);
  EXPECT_EQ(wire_camera.view().m, local.view().m);
  EXPECT_EQ(wire_camera.fov_y(), local.fov_y());
  EXPECT_EQ(wire_camera.width(), local.width());
  EXPECT_EQ(wire_camera.height(), local.height());
}

// ---------------------------------------------------------------------------
// Server bridge
// ---------------------------------------------------------------------------

/// Starts a server over a fresh service and runs `body(service, server)`.
template <typename Fn>
void with_server(runtime::ServiceConfig service_config, ServerConfig config,
                 Fn&& body) {
  runtime::RenderService service(std::move(service_config));
  Server server(service, std::move(config));
  server.start();
  body(service, server);
  server.stop();
}

TEST(Server, RenderMatchesDirectSubmitBitIdentical) {
  // The canonical 20k/320x240 configuration, sw backend.
  runtime::ServiceConfig config;
  config.workers = 2;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService& service, Server& server) {
    RenderRequest wire = default_render_request(20000, 42, 320, 240);
    wire.request_id = 3;
    wire.flags = kWantImage;

    Client client("127.0.0.1", server.port());
    const RenderResponse resp = client.render(wire);
    ASSERT_EQ(resp.status, RenderStatus::kOk) << resp.message;
    ASSERT_TRUE(resp.has_image);
    EXPECT_EQ(resp.request_id, 3u);
    EXPECT_GT(resp.latency_ms, 0.0);

    const runtime::ScenePtr scene = service.scene(wire.scene);
    const Image direct =
        service.submit({scene, scene::default_camera({}, 320, 240)})
            .get()
            .frame.image;

    ASSERT_EQ(resp.image_width, direct.width());
    ASSERT_EQ(resp.image_height, direct.height());
    ASSERT_EQ(resp.pixels.size(), direct.pixel_count() * 3);
    // Bit-identical: the wire round-trip must not perturb a single ULP.
    EXPECT_EQ(std::memcmp(resp.pixels.data(), direct.pixels().data(),
                          resp.pixels.size() * sizeof(float)),
              0);
    // The server resolved the request through the shared scene cache.
    EXPECT_EQ(service.cached_scene_count(), 1u);
  });
}

TEST(Server, ConcurrentClientsWithoutDeadlinesAllServedOk) {
  // Closed-loop clients sharing one server, each on its own connection:
  // every request without a deadline comes back OK, under its own id, with
  // the frame a direct submit renders.
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 4;
  runtime::ServiceConfig config;
  config.workers = 2;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService& service, Server& server) {
    const auto make_wire = [](int client, int i) {
      RenderRequest wire = default_render_request(
          600, static_cast<std::uint64_t>(client % 2), 64, 48);
      wire.eye[0] += 0.25f * static_cast<float>(i);
      wire.request_id = static_cast<std::uint64_t>(client * 100 + i);
      wire.flags = kWantImage;
      return wire;
    };
    std::vector<std::vector<RenderResponse>> responses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Client client("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsPerClient; ++i) {
          responses[c].push_back(client.render(make_wire(c, i)));
        }
      });
    }
    for (std::thread& client : clients) client.join();

    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const RenderRequest wire = make_wire(c, i);
        const RenderResponse& resp = responses[c][i];
        ASSERT_EQ(resp.status, RenderStatus::kOk) << resp.message;
        EXPECT_EQ(resp.request_id, wire.request_id);
        const Image direct =
            service.submit({service.scene(wire.scene), wire.camera()})
                .get()
                .frame.image;
        ASSERT_EQ(resp.pixels.size(), direct.pixel_count() * 3);
        EXPECT_EQ(std::memcmp(resp.pixels.data(), direct.pixels().data(),
                              resp.pixels.size() * sizeof(float)),
                  0)
            << "client " << c << " request " << i;
      }
    }
  });
}

TEST(Server, FullQueueYieldsOverloadedResponse) {
  std::promise<void> gate;
  const auto gated =
      std::make_shared<GatedBackend>(gate.get_future().share());
  runtime::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.backend_instance = gated;

  runtime::RenderService service(config);
  Server server(service, {});
  server.start();
  {
    const runtime::ScenePtr scene = service.scene("synthetic:600@7");
    const scene::Camera camera = scene::default_camera({}, 64, 48);

    // Fill the service: one job parks the worker on the gate, then one
    // more occupies the single queue slot. The wait between them matters —
    // shedding before the worker has dequeued job 1 would leave the slot
    // free again the instant it does, and the wire request below would be
    // accepted and park instead of being rejected.
    std::vector<std::future<runtime::JobResult>> futures;
    futures.push_back(service.submit({scene, camera}));
    gated->wait_until_rendering(1);
    auto queued = service.try_submit({scene, camera});
    ASSERT_TRUE(queued) << "queue slot not free after worker dequeued";
    futures.push_back(std::move(*queued));
    ASSERT_FALSE(service.try_submit({scene, camera}))
        << "bounded queue never filled";

    // Admission control on the wire: the shed request comes back as an
    // explicit OVERLOADED response on a healthy connection — not a hang,
    // not a dropped connection.
    RenderRequest wire = default_render_request(600, 7, 64, 48);
    wire.request_id = 42;
    Client client("127.0.0.1", server.port());
    const RenderResponse resp = client.render(wire);
    EXPECT_EQ(resp.status, RenderStatus::kOverloaded);
    EXPECT_EQ(resp.request_id, 42u);
    EXPECT_FALSE(resp.message.empty());

    // The connection survived the rejection: a stats request still works.
    EXPECT_NE(client.stats().json.find("\"rejected\""), std::string::npos);

    gate.set_value();
    for (auto& f : futures) f.get();
    EXPECT_GE(service.stats().rejected, 1u);
  }
  server.stop();
}

TEST(Server, MismatchedOptionsAreExplicitServerErrors) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    Client client("127.0.0.1", server.port());

    RenderRequest wrong_backend = default_render_request(600, 7, 64, 48);
    wrong_backend.backend = "gaurast";
    const RenderResponse r1 = client.render(wrong_backend);
    EXPECT_EQ(r1.status, RenderStatus::kServerError);
    EXPECT_NE(r1.message.find("backend mismatch"), std::string::npos);

    RenderRequest wrong_kernel = default_render_request(600, 7, 64, 48);
    wrong_kernel.kernel = "fast";
    const RenderResponse r2 = client.render(wrong_kernel);
    EXPECT_EQ(r2.status, RenderStatus::kServerError);
    EXPECT_NE(r2.message.find("kernel mismatch"), std::string::npos);

    RenderRequest too_big = default_render_request(600, 7, 64, 48);
    too_big.scene = "synthetic:" + std::to_string(1u << 30);
    const RenderResponse r3 = client.render(too_big);
    EXPECT_EQ(r3.status, RenderStatus::kServerError);
    EXPECT_NE(r3.message.find("gaussian_count"), std::string::npos);
  });
}

/// Serves with max_gaussian_count 1000 and sends `request(count)` for a
/// count over and at the cap: the first is refused before the store
/// generates anything, the second renders.
template <typename MakeRequest>
void expect_gaussian_cap(MakeRequest&& request) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  ServerConfig server_config;
  server_config.max_gaussian_count = 1000;
  with_server(config, server_config,
              [&](runtime::RenderService& service, Server& server) {
    Client client("127.0.0.1", server.port());
    const RenderResponse over = client.render(request(5000));
    EXPECT_EQ(over.status, RenderStatus::kServerError);
    EXPECT_NE(over.message.find("max_gaussian_count"), std::string::npos)
        << over.message;
    EXPECT_EQ(service.cached_scene_count(), 0u);

    EXPECT_EQ(client.render(request(1000)).status, RenderStatus::kOk);
    EXPECT_EQ(service.cached_scene_count(), 1u);
  });
}

TEST(Server, GaussianCapAppliesToGaussianCountField) {
  expect_gaussian_cap([](std::uint64_t count) {
    return default_render_request(count, 7, 64, 48);
  });
}

TEST(Server, GaussianCapAppliesToSyntheticSceneKey) {
  expect_gaussian_cap([](std::uint64_t count) {
    RenderRequest req = default_render_request(1, 7, 64, 48);
    req.scene = "synthetic:" + std::to_string(count);
    return req;
  });
}

TEST(Server, FrameSizeLimitAppliesWithoutImageFlag) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService& service, Server& server) {
    Client client("127.0.0.1", server.port());
    // No pixels would travel back, but a 40000x40000 frame would still
    // hold a worker for many seconds: the one frame-size limit refuses it
    // before the scene store resolves anything.
    const RenderRequest huge = default_render_request(600, 7, 40000, 40000);
    ASSERT_EQ(huge.flags & kWantImage, 0u);
    const RenderResponse refused = client.render(huge);
    EXPECT_EQ(refused.status, RenderStatus::kServerError);
    EXPECT_NE(refused.message.find(std::to_string(kMaxPayloadBytes)),
              std::string::npos)
        << refused.message;
    EXPECT_EQ(service.cached_scene_count(), 0u);

    // The refusal left the connection serving.
    RenderRequest small = default_render_request(600, 7, 64, 48);
    small.flags = kWantImage;
    const RenderResponse ok = client.render(small);
    ASSERT_EQ(ok.status, RenderStatus::kOk) << ok.message;
    EXPECT_EQ(ok.image_width, 64);
    EXPECT_EQ(ok.image_height, 48);
  });
}

TEST(Server, MalformedFrameGetsErrorFrameAndClose) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    RawConn conn(server.port());
    std::vector<std::uint8_t> bad = serialize_stats_request();
    bad[0] = 0xFF;  // corrupt the magic
    conn.send_bytes(bad);

    const std::vector<std::uint8_t> reply = conn.read_until_close();
    ASSERT_GE(reply.size(), kHeaderBytes);
    const FrameHeader header = decode_header(reply.data());
    EXPECT_EQ(header.type, MessageType::kError);
    const std::string message =
        deserialize_error(reply.data() + kHeaderBytes, header.payload_size);
    EXPECT_NE(message.find("magic"), std::string::npos) << message;
  });
}

/// A render-request frame cut `drop` bytes short, its header's payload
/// size and version byte rewritten to match.
std::vector<std::uint8_t> cut_request_frame(std::size_t drop,
                                            std::uint8_t version) {
  std::vector<std::uint8_t> frame =
      serialize(default_render_request(600, 7, 64, 48));
  frame.resize(frame.size() - drop);
  frame[4] = version;
  const std::uint32_t payload_size =
      static_cast<std::uint32_t>(frame.size() - kHeaderBytes);
  std::memcpy(frame.data() + 8, &payload_size, 4);
  return frame;
}

TEST(Server, OldVersionFramesGetErrorFrameAndClose) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    // Every older version byte is refused on the header, before any
    // payload field is read, whatever shape of payload follows.
    for (const std::uint8_t version : {1, 2, 3}) {
      RawConn conn(server.port());
      conn.send_bytes(cut_request_frame(0, version));
      const std::vector<std::uint8_t> reply = conn.read_until_close();
      ASSERT_GE(reply.size(), kHeaderBytes);
      const FrameHeader header = decode_header(reply.data());
      EXPECT_EQ(header.type, MessageType::kError);
      const std::string message =
          deserialize_error(reply.data() + kHeaderBytes, header.payload_size);
      EXPECT_NE(message.find("version"), std::string::npos) << message;
    }
  });
}

TEST(Server, TruncatedRequestTailRejectedLoudly) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    // The current version byte on a payload cut inside `scene`: a protocol
    // error (kError frame and close), never a silently defaulted field.
    RawConn conn(server.port());
    conn.send_bytes(cut_request_frame(4, kProtocolVersion));
    const std::vector<std::uint8_t> reply = conn.read_until_close();
    ASSERT_GE(reply.size(), kHeaderBytes);
    EXPECT_EQ(decode_header(reply.data()).type, MessageType::kError);
  });
}

TEST(Server, NonEmptyStatsRequestPayloadIsAProtocolError) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    RawConn conn(server.port());
    // A stats-request header declaring 4 payload bytes.
    std::vector<std::uint8_t> frame = serialize_stats_request();
    frame[8] = 4;
    frame.insert(frame.end(), {1, 2, 3, 4});
    conn.send_bytes(frame);
    const std::vector<std::uint8_t> reply = conn.read_until_close();
    ASSERT_GE(reply.size(), kHeaderBytes);
    EXPECT_EQ(decode_header(reply.data()).type, MessageType::kError);
  });
}

TEST(Server, IdleConnectionsAreClosedAfterTimeout) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  ServerConfig server_config;
  server_config.idle_timeout_ms = 100;
  with_server(config, server_config,
              [](runtime::RenderService&, Server& server) {
                RawConn conn(server.port());
                // Send nothing: the sweep must close us, not leak the
                // connection (read_until_close fails the test on timeout).
                const auto leftover = conn.read_until_close();
                EXPECT_TRUE(leftover.empty());
              });
}

TEST(Server, HttpHealthAndStatsEndpoints) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    Client healthz("127.0.0.1", server.port());
    const std::string health = healthz.http_get("/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find(kServeStatsSchema), std::string::npos);

    Client stats("127.0.0.1", server.port());
    const std::string body = stats.http_get("/stats");
    EXPECT_NE(body.find("\"completed\""), std::string::npos);

    Client bogus("127.0.0.1", server.port());
    EXPECT_NE(bogus.http_get("/bogus").find("404"), std::string::npos);
  });
}

TEST(Server, StatsFramesAreSchemaStamped) {
  runtime::ServiceConfig config;
  config.backend = "sw";
  with_server(config, {}, [](runtime::RenderService&, Server& server) {
    Client client("127.0.0.1", server.port());
    const std::string json = client.stats().json;
    EXPECT_EQ(json.find("{\"schema\":\"gaurast-serve-stats/v3\""), 0u);
    EXPECT_NE(json.find("\"submitted\""), std::string::npos);
  });
}

TEST(Server, GracefulStopDrainsInFlightRequests) {
  std::promise<void> gate;
  runtime::ServiceConfig config;
  config.workers = 1;
  config.backend_instance =
      std::make_shared<GatedBackend>(gate.get_future().share());

  runtime::RenderService service(config);
  Server server(service, {});
  server.start();

  // A client whose render is accepted, then parked on the gate.
  std::thread client_thread([port = server.port()] {
    Client client("127.0.0.1", port);
    RenderRequest wire = default_render_request(600, 7, 64, 48);
    wire.request_id = 11;
    wire.flags = kWantImage;
    const RenderResponse resp = client.render(wire);
    EXPECT_EQ(resp.status, RenderStatus::kOk);
    EXPECT_EQ(resp.request_id, 11u);
    EXPECT_TRUE(resp.has_image);
  });
  while (service.stats().submitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // stop() must wait for the in-flight job and flush its response to the
  // client — shutdown drains, it never abandons accepted work.
  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();
  stopper.join();
  client_thread.join();
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(Server, FrameThenImmediateResetKeepsServing) {
  runtime::ServiceConfig sconfig;
  sconfig.backend = "sw";
  with_server(sconfig, {}, [](runtime::RenderService&, Server& server) {
    // A peer that sends frames and resets in the same instant makes the
    // respond path hit EPIPE/ECONNRESET mid-dispatch, erasing the
    // connection while process_read_buffer is still working on it — the
    // reference must not be touched after the erase. Repeat to give the
    // race a fair chance; ASan turns any regression into a hard failure.
    for (int i = 0; i < 2000; ++i) {
      RawConn conn(server.port());
      std::vector<std::uint8_t> bytes;
      for (int k = 0; k < 3; ++k) {
        const auto f = serialize_stats_request();
        bytes.insert(bytes.end(), f.begin(), f.end());
      }
      conn.send_bytes(bytes);
      if (i % 3 == 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(i % 50));
      }
      conn.reset();
    }
    // The server must still be serving after the abuse.
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.stats().json.find("{\"schema\":\"gaurast-serve-stats/v3\""),
              0u);
  });
}

TEST(Client, IsAliveDetectsPeerCloseAndReconnectRecovers) {
  runtime::ServiceConfig sconfig;
  sconfig.backend = "sw";
  runtime::RenderService service(sconfig);
  auto server = std::make_unique<Server>(service, ServerConfig{});
  server->start();
  const int port = server->port();

  Client client("127.0.0.1", port);
  EXPECT_TRUE(client.is_alive());
  EXPECT_NE(client.stats().json.find("gaurast-serve-stats"),
            std::string::npos);
  EXPECT_TRUE(client.is_alive()) << "a served request must not kill liveness";

  // Stop the server: the FIN must flip is_alive to false without any
  // send/recv attempt from our side.
  server->stop();
  server.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.is_alive()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "is_alive never noticed the peer close";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Reconnect against the dead port fails loudly and leaves us not-alive.
  EXPECT_THROW(client.reconnect(), Error);
  EXPECT_FALSE(client.is_alive());

  // Restart on the same port: reconnect() restores a working connection.
  ServerConfig config;
  config.port = port;
  Server restarted(service, config);
  restarted.start();
  client.reconnect();
  EXPECT_TRUE(client.is_alive());
  EXPECT_NE(client.stats().json.find("gaurast-serve-stats"),
            std::string::npos);
  restarted.stop();
}

TEST(Client, TransportFailureMarksConnectionBroken) {
  runtime::ServiceConfig sconfig;
  sconfig.backend = "sw";
  runtime::RenderService service(sconfig);
  Server server(service, {});
  server.start();

  Client client("127.0.0.1", server.port());
  // http_get is one-shot by contract: the server closes after responding,
  // so the client must mark itself broken rather than pretend the
  // connection is reusable.
  EXPECT_NE(client.http_get("/healthz").find("200 OK"), std::string::npos);
  EXPECT_FALSE(client.is_alive());
  EXPECT_THROW(client.stats(), Error);
  client.reconnect();
  EXPECT_NE(client.stats().json.find("gaurast-serve-stats"),
            std::string::npos);
  server.stop();
}

TEST(Client, DistinguishesTimeoutFromConnectionFailure) {
  // Refusal: the transport failed before the peer did any work.
  // ConnectionError — a retry policy may fail over immediately.
  int refused_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    refused_port = ntohs(addr.sin_port);
    ::close(fd);
  }
  EXPECT_THROW(Client("127.0.0.1", refused_port), ConnectionError);

  // A wedged render: the peer is alive but slow, and the recv budget ran
  // out. TimeoutError — budget-consuming, so a retry policy backs off —
  // and the half-finished exchange marks the connection broken.
  std::promise<void> gate;
  runtime::ServiceConfig config;
  config.workers = 1;
  config.backend_instance =
      std::make_shared<GatedBackend>(gate.get_future().share());
  runtime::RenderService service(config);
  Server server(service, {});
  server.start();
  {
    Client client("127.0.0.1", server.port(), /*timeout_ms=*/300);
    const RenderRequest wire = default_render_request(600, 7, 64, 48);
    EXPECT_THROW(client.render(wire), TimeoutError);
    EXPECT_FALSE(client.is_alive());
  }
  gate.set_value();
  server.stop();
}

TEST(Client, ConnectTimeoutFailsFastNotForever) {
  // A black-holed peer, built on loopback: a listener whose accept queue is
  // deliberately saturated drops further SYNs on the floor, so a connect
  // neither completes nor gets refused — exactly the failure mode the
  // connect timeout exists for. The dial must fail within its bound, not
  // sit in the kernel's minutes-long default.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ASSERT_EQ(::listen(listen_fd, 0), 0);  // minimal queue, never accepted

  // Saturate the queue with nonblocking dials that nobody will accept.
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(Client("127.0.0.1", ntohs(addr.sin_port),
                      /*timeout_ms=*/30000, /*connect_timeout_ms=*/300),
               TimeoutError);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(elapsed_ms, 10000) << "connect ignored its timeout";

  for (const int fd : fillers) ::close(fd);
  ::close(listen_fd);
}

TEST(Server, StopForceClosesPeersThatNeverRead) {
  runtime::ServiceConfig sconfig;
  sconfig.workers = 2;
  sconfig.backend = "sw";
  ServerConfig config;
  config.idle_timeout_ms = 0;  // the sweep that would otherwise reap them
  config.drain_timeout_ms = 200;
  runtime::RenderService service(sconfig);
  Server server(service, config);
  server.start();

  // A peer with a tiny receive window that requests image frames and never
  // reads a byte: the responses can never drain through the socket, so
  // stop() must force-close the connection after drain_timeout_ms instead
  // of waiting for a flush that will never finish.
  RawConn conn(server.port(), /*timeout_ms=*/3000, /*rcvbuf=*/4096);
  RenderRequest wire = default_render_request(600, 7, 320, 240);
  wire.flags = kWantImage;
  for (std::uint64_t i = 0; i < 8; ++i) {
    wire.request_id = i;
    conn.send_bytes(serialize(wire));
  }
  while (service.stats().completed < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 30000) << "stop() hung on an undrained connection";
}

}  // namespace
