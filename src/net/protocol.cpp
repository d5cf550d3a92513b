#include "net/protocol.hpp"

#include <cstdio>
#include <cstring>

#include "scene/generator.hpp"
#include "scene/store.hpp"

namespace gaurast::net {

namespace {

// Little-endian byte packing. memcpy through fixed-width integers keeps the
// encoding identical across hosts (and is the only strict-aliasing-safe way
// to reinterpret float bits).

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(out, bits);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Cursor over a frame payload. Every read is bounds-checked; reading past
/// the end (a truncated payload) is a ProtocolError naming the message
/// being decoded.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= std::uint16_t(data_[pos_ + i]) << (8 * i);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string string() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// A decoder must consume its payload exactly; trailing bytes mean the
  /// peer and we disagree about the encoding.
  void finish() const {
    if (pos_ != size_) {
      throw ProtocolError(std::string(what_) + " payload has " +
                          std::to_string(size_ - pos_) + " trailing byte(s)");
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw ProtocolError(std::string(what_) + " payload truncated (need " +
                          std::to_string(n) + " byte(s) at offset " +
                          std::to_string(pos_) + " of " +
                          std::to_string(size_) + ")");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Prepends the frame header to an already-built payload.
std::vector<std::uint8_t> frame(MessageType type,
                                std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kRenderRequest: return "render-request";
    case MessageType::kRenderResponse: return "render-response";
    case MessageType::kStatsRequest: return "stats-request";
    case MessageType::kStatsResponse: return "stats-response";
    case MessageType::kError: return "error";
  }
  return "?";
}

const char* to_string(RenderStatus status) {
  switch (status) {
    case RenderStatus::kOk: return "ok";
    case RenderStatus::kOverloaded: return "overloaded";
    case RenderStatus::kServerError: return "server-error";
    case RenderStatus::kFleetUnavailable: return "fleet-unavailable";
    case RenderStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

RenderRequest default_render_request(std::uint64_t gaussian_count,
                                     std::uint64_t scene_seed, int width,
                                     int height) {
  RenderRequest req;
  req.scene = scene::synthetic_scene_key(gaussian_count, scene_seed);
  req.width = width;
  req.height = height;
  // Mirrors scene::default_camera over default GeneratorParams; the
  // net_test bit-identity case pins these two together.
  const scene::GeneratorParams params;
  const float r = 2.2f * params.scene_radius;
  req.fov_y = 0.9f;
  req.eye[0] = r;
  req.eye[1] = 0.6f * params.scene_radius;
  req.eye[2] = r;
  req.target[0] = 0.0f;
  req.target[1] = 0.3f * params.scene_radius;
  req.target[2] = 0.0f;
  return req;
}

scene::Camera RenderRequest::camera() const {
  return scene::Camera(width, height, fov_y, Vec3f{eye[0], eye[1], eye[2]},
                       Vec3f{target[0], target[1], target[2]},
                       Vec3f{up[0], up[1], up[2]});
}

FrameHeader decode_header(const std::uint8_t* data) {
  Reader r(data, kHeaderBytes, "frame header");
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    throw ProtocolError("bad frame magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x", magic);
      return std::string(buf);
    }());
  }
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version) + " (this peer speaks " +
                        std::to_string(kProtocolVersion) + ")");
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MessageType::kRenderRequest) ||
      type > static_cast<std::uint8_t>(MessageType::kError)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  const std::uint16_t reserved = r.u16();
  if (reserved != 0) {
    throw ProtocolError("nonzero reserved header bits");
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(type);
  header.payload_size = r.u32();
  if (header.payload_size > kMaxPayloadBytes) {
    throw ProtocolError("oversized frame payload (" +
                        std::to_string(header.payload_size) + " > " +
                        std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  return header;
}

std::vector<std::uint8_t> serialize(const RenderRequest& msg) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, msg.request_id);
  put_u32(payload, static_cast<std::uint32_t>(msg.width));
  put_u32(payload, static_cast<std::uint32_t>(msg.height));
  put_f32(payload, msg.fov_y);
  for (float v : msg.eye) put_f32(payload, v);
  for (float v : msg.target) put_f32(payload, v);
  for (float v : msg.up) put_f32(payload, v);
  put_u32(payload, msg.flags);
  put_string(payload, msg.backend);
  put_string(payload, msg.kernel);
  put_u32(payload, msg.deadline_ms);
  put_string(payload, msg.scene);
  return frame(MessageType::kRenderRequest, std::move(payload));
}

RenderRequest deserialize_render_request(const std::uint8_t* data,
                                         std::size_t size) {
  Reader r(data, size, "render-request");
  RenderRequest msg;
  msg.request_id = r.u64();
  msg.width = static_cast<std::int32_t>(r.u32());
  msg.height = static_cast<std::int32_t>(r.u32());
  msg.fov_y = r.f32();
  for (float& v : msg.eye) v = r.f32();
  for (float& v : msg.target) v = r.f32();
  for (float& v : msg.up) v = r.f32();
  msg.flags = r.u32();
  msg.backend = r.string();
  msg.kernel = r.string();
  msg.deadline_ms = r.u32();
  msg.scene = r.string();
  r.finish();
  if (msg.width <= 0 || msg.height <= 0) {
    throw ProtocolError("render-request image dimensions must be positive");
  }
  if (msg.scene.empty()) {
    throw ProtocolError("render-request scene key must not be empty");
  }
  return msg;
}

std::vector<std::uint8_t> serialize(const RenderResponse& msg) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64 + msg.message.size() + msg.pixels.size() * 4);
  put_u64(payload, msg.request_id);
  put_u8(payload, static_cast<std::uint8_t>(msg.status));
  put_u64(payload, msg.job_id);
  put_f64(payload, msg.latency_ms);
  put_f64(payload, msg.queue_wait_ms);
  put_f64(payload, msg.service_ms);
  put_string(payload, msg.message);
  put_u8(payload, msg.has_image ? 1 : 0);
  if (msg.has_image) {
    put_u32(payload, static_cast<std::uint32_t>(msg.image_width));
    put_u32(payload, static_cast<std::uint32_t>(msg.image_height));
    for (float v : msg.pixels) put_f32(payload, v);
  }
  return frame(MessageType::kRenderResponse, std::move(payload));
}

RenderResponse deserialize_render_response(const std::uint8_t* data,
                                           std::size_t size) {
  Reader r(data, size, "render-response");
  RenderResponse msg;
  msg.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(RenderStatus::kDeadlineExceeded)) {
    throw ProtocolError("unknown render status " + std::to_string(status));
  }
  msg.status = static_cast<RenderStatus>(status);
  msg.job_id = r.u64();
  msg.latency_ms = r.f64();
  msg.queue_wait_ms = r.f64();
  msg.service_ms = r.f64();
  msg.message = r.string();
  msg.has_image = r.u8() != 0;
  if (msg.has_image) {
    msg.image_width = static_cast<std::int32_t>(r.u32());
    msg.image_height = static_cast<std::int32_t>(r.u32());
    if (msg.image_width <= 0 || msg.image_height <= 0) {
      throw ProtocolError("render-response image dimensions must be positive");
    }
    const std::uint64_t count = std::uint64_t(msg.image_width) *
                                std::uint64_t(msg.image_height) * 3;
    // Divide instead of multiplying: count * 4 can wrap u64 for dimensions
    // near INT32_MAX, which would bypass the bound and turn a malformed
    // frame into a length_error/bad_alloc instead of a ProtocolError.
    if (count > size / 4) {
      throw ProtocolError("render-response image larger than its payload");
    }
    msg.pixels.resize(count);
    for (float& v : msg.pixels) v = r.f32();
  }
  r.finish();
  return msg;
}

std::vector<std::uint8_t> serialize_stats_request() {
  return frame(MessageType::kStatsRequest, {});
}

std::vector<std::uint8_t> serialize(const StatsResponse& msg) {
  std::vector<std::uint8_t> payload;
  put_string(payload, msg.json);
  return frame(MessageType::kStatsResponse, std::move(payload));
}

StatsResponse deserialize_stats_response(const std::uint8_t* data,
                                         std::size_t size) {
  Reader r(data, size, "stats-response");
  StatsResponse msg;
  msg.json = r.string();
  r.finish();
  return msg;
}

std::vector<std::uint8_t> serialize_error(const std::string& message) {
  std::vector<std::uint8_t> payload;
  put_string(payload, message);
  return frame(MessageType::kError, std::move(payload));
}

std::string deserialize_error(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size, "error");
  std::string message = r.string();
  r.finish();
  return message;
}

}  // namespace gaurast::net
