// gaurast::net wire protocol — the versioned, length-prefixed binary
// framing every gaurast network peer speaks. This header is the protocol's
// single source of truth: every constant, the frame layout, and the payload
// encodings are defined (and documented) here and nowhere else.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic          kFrameMagic ("GAUR")
//        4     1  version        kProtocolVersion
//        5     1  type           MessageType
//        6     2  reserved       must be zero
//        8     4  payload_size   <= kMaxPayloadBytes
//       12     n  payload        MessageType-specific encoding below
//
// Versioning: peers emit kProtocolVersion and accept exactly it. Any other
// version byte is a protocol error; there are no per-version payload
// branches.
//
// A peer that receives a frame violating any of these rules (bad magic,
// unknown version, nonzero reserved bits, oversized payload, unknown type,
// or a payload that does not decode exactly) must send a kError frame and
// close the connection — malformed input is a protocol error, never a
// silent drop or a hang.
//
// Payload encodings (strings are u32 length + raw bytes; floats are IEEE
// 754 little-endian, so image payloads round-trip bit-identically):
//
//   kRenderRequest   request_id u64, width u32, height u32, fov_y f32,
//                    eye f32[3], target f32[3], up f32[3], flags u32
//                    (bit 0 = kWantImage), backend string, kernel string,
//                    deadline_ms u32 (0 = no deadline), scene string — a
//                    canonical scene key ("synthetic:<count>[@<seed>]" or
//                    "ply:<path-or-name>", see scene/store.hpp). scene is
//                    required: an empty one is a protocol error. A request
//                    whose image (12 bytes a pixel + 1024) would not fit
//                    kMaxPayloadBytes gets a kServerError response, whether
//                    or not it sets kWantImage.
//                    Empty backend/kernel mean "whatever the server is
//                    configured with"; a non-empty value that differs from
//                    the serving configuration yields a kServerError
//                    response naming the mismatch (explicit rejection, not
//                    a silent substitution). deadline_ms is the remaining
//                    latency budget in milliseconds, counted from the
//                    moment the receiver reads the frame; a router rewrites
//                    it to the remaining budget before each forward.
//   kRenderResponse  request_id u64, status u8 (RenderStatus), job_id u64,
//                    latency_ms f64, queue_wait_ms f64, service_ms f64,
//                    message string (empty unless status != kOk),
//                    has_image u8, [width u32, height u32,
//                    pixels f32[w*h*3]].
//                    RenderStatus::kOverloaded is the admission-control
//                    signal: the service queue was full and the request was
//                    shed — the connection stays open and the client may
//                    retry. RenderStatus::kFleetUnavailable is the cluster
//                    router's terminal routing failure: no shard could take
//                    the request (all dead or retry budget exhausted).
//                    RenderStatus::kDeadlineExceeded means the request's
//                    deadline_ms budget ran out before a render could
//                    complete — shed at admission, in the queue, or at a
//                    router hop; never sent for a request without a
//                    deadline.
//   kStatsRequest    (empty payload)
//   kStatsResponse   json string — the server's ServiceStats snapshot as
//                    schema-stamped JSON (kServeStatsSchema).
//   kError           message string — protocol-level failure; the sender
//                    closes the connection after flushing this frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "scene/camera.hpp"

namespace gaurast::net {

/// Frame magic: "GAUR" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x52554147u;

/// The one wire-format version byte peers emit and accept; a frame carrying
/// any other is a protocol error.
///
/// History: v1 was the initial protocol. v2 appended deadline_ms to
/// RenderRequest and added kDeadlineExceeded. v3 appended the canonical
/// scene-key string (empty = derive from gaussian_count/seed) and moved the
/// stats schema to gaurast-serve-stats/v2. v4 deletes gaussian_count and
/// scene_seed from RenderRequest and makes the scene key required, so a
/// request names its scene one way. No peer speaks v1-v3 any more.
inline constexpr std::uint8_t kProtocolVersion = 4;

/// Fixed frame-header size in bytes (magic + version + type + reserved +
/// payload_size).
inline constexpr std::size_t kHeaderBytes = 12;

/// Upper bound on a frame payload. Large enough for a 2048x2048 RGB float
/// image with headroom; anything bigger is a malformed frame by definition.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

/// Schema tag stamped on every ServiceStats JSON report a server emits
/// (the stats endpoint, `serve --json`, and kStatsResponse payloads).
/// v2 adds the scene-store counters (scene_evictions, scene_rejected,
/// scene_resident_bytes, scene_peak_resident_bytes, scene_resident_count)
/// to the flat per-shard object and to the fleet-merged sums. v3 drops the
/// per-stage "stages" array from the stats object and the "mode" and
/// "stage_workers" fields from `serve --json`: the service has one
/// executor.
inline constexpr const char* kServeStatsSchema = "gaurast-serve-stats/v3";

/// RenderRequest::flags bits.
inline constexpr std::uint32_t kWantImage = 1u << 0;

enum class MessageType : std::uint8_t {
  kRenderRequest = 1,
  kRenderResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kError = 5,
};

enum class RenderStatus : std::uint8_t {
  kOk = 0,
  /// Admission control: the service queue was full and try_submit shed the
  /// request. Never a dropped or hung connection.
  kOverloaded = 1,
  /// The server could not serve this request (e.g. a backend/kernel option
  /// mismatch); message names the reason.
  kServerError = 2,
  /// Only a cluster router emits this: every shard of the fleet is dead (or
  /// failed over exhaustively for this request). The connection stays open;
  /// the client may retry once the fleet recovers. Single servers never
  /// send it.
  kFleetUnavailable = 3,
  /// The request carried a deadline_ms budget and it ran out before a
  /// render could complete: shed at admission, dropped from a service
  /// queue, or given up by a router hop. Only requests that set a deadline
  /// can receive it.
  kDeadlineExceeded = 4,
};

const char* to_string(MessageType type);
const char* to_string(RenderStatus status);

/// Malformed wire input: bad magic/version/size, truncated payload, or a
/// payload that does not decode exactly. Receivers answer with a kError
/// frame and close.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

/// One frame request as it travels the wire. The scene is named by a
/// canonical scene-store key — the key space the RenderService scene store
/// uses — and the camera by its constructor inputs, so the server can
/// rebuild an identical scene::Camera and the rendered image is
/// bit-identical to an in-process submission.
struct RenderRequest {
  std::uint64_t request_id = 0;  ///< client token, echoed in the response
  std::int32_t width = 0;
  std::int32_t height = 0;
  float fov_y = 0.9f;
  float eye[3] = {0.0f, 0.0f, 0.0f};
  float target[3] = {0.0f, 0.0f, 0.0f};
  float up[3] = {0.0f, 1.0f, 0.0f};
  std::uint32_t flags = 0;  ///< kWantImage, ...
  std::string backend;      ///< empty = server default
  std::string kernel;       ///< empty = server default
  /// Remaining latency budget in milliseconds, counted from the moment the
  /// receiver reads the frame; 0 = no deadline.
  std::uint32_t deadline_ms = 0;
  /// Canonical scene key ("synthetic:<n>[@<seed>]" / "ply:<name>");
  /// required.
  std::string scene;

  /// Rebuilds the camera from the serialized constructor inputs.
  scene::Camera camera() const;
};

struct RenderResponse {
  std::uint64_t request_id = 0;
  RenderStatus status = RenderStatus::kOk;
  std::uint64_t job_id = 0;
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  std::string message;  ///< empty unless status != kOk
  bool has_image = false;
  std::int32_t image_width = 0;
  std::int32_t image_height = 0;
  /// Row-major RGB float pixels (3 floats per pixel), bit-exact.
  std::vector<float> pixels;
};

struct StatsResponse {
  std::string json;  ///< schema-stamped ServiceStats snapshot
};

/// A render request for scene::synthetic_scene_key(gaussian_count,
/// scene_seed) — the same keys the workload generator emits — whose camera
/// reproduces scene::default_camera (default GeneratorParams) for the given
/// dimensions: the same view `gaurast_cli render` uses, so a wire render is
/// bit-comparable with a local one. Flags start at 0; set kWantImage to get
/// pixels back.
RenderRequest default_render_request(std::uint64_t gaussian_count,
                                     std::uint64_t scene_seed, int width,
                                     int height);

// Each message serializes to a complete frame (header + payload) ready to
// write to a socket, and deserializes from a payload span already validated
// against the header by decode_header().

struct FrameHeader {
  MessageType type = MessageType::kError;
  std::uint32_t payload_size = 0;
};

/// Validates `kHeaderBytes` of header and returns the decoded type/size.
/// Throws ProtocolError on bad magic, a version other than
/// kProtocolVersion, reserved bits, payload size, or unknown message type.
FrameHeader decode_header(const std::uint8_t* data);

std::vector<std::uint8_t> serialize(const RenderRequest& msg);
std::vector<std::uint8_t> serialize(const RenderResponse& msg);
std::vector<std::uint8_t> serialize_stats_request();
std::vector<std::uint8_t> serialize(const StatsResponse& msg);
std::vector<std::uint8_t> serialize_error(const std::string& message);

/// Payload decoders; `data`/`size` span exactly the frame payload. Every
/// decoder consumes the payload exactly — trailing bytes are a
/// ProtocolError, as is any truncation.
RenderRequest deserialize_render_request(const std::uint8_t* data,
                                         std::size_t size);
RenderResponse deserialize_render_response(const std::uint8_t* data,
                                           std::size_t size);
StatsResponse deserialize_stats_response(const std::uint8_t* data,
                                         std::size_t size);
std::string deserialize_error(const std::uint8_t* data, std::size_t size);

}  // namespace gaurast::net
