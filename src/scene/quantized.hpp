// Compact quantized splat representation — the at-rest form scenes take
// inside scene::SceneStore.
//
// Per splat: position and per-axis scale as IEEE binary16 (fp16) bits,
// the unit rotation quaternion packed smallest-three into one u32, opacity
// as a u8 fixed-point fraction, and the RGB SH coefficients as fp16 bits —
// 13 + 6*(deg+1)^2 bytes against the float scene's 44 + 12*(deg+1)^2, a
// ~0.5x resident-byte ratio at SH degree 3 and well under the 0.6x budget
// the scene store is specified against.
//
// dequantize() is a pure function of the quantized bytes: the same
// QuantizedScene always reconstructs a bit-identical GaussianScene, which
// is what makes evict-and-reload serving frame-stable (pinned by
// scene_store_test's bit-stability matrix).
//
// All float<->half conversions live in quantized.cpp (and common/half) —
// the lint_invariants `half-confinement` rule keeps it that way; everyone
// else goes through quantize()/dequantize() or QuantizedSceneBuilder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "gsmath/quat.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::scene {

/// Admission rejection: a scene's quantized payload exceeds a byte limit
/// (SceneStore max_scene_bytes / max_bytes). Thrown before the scene is
/// materialized whenever the size is knowable up front, so an over-budget
/// request costs a refusal, not an OOM.
class SceneOverBudgetError : public Error {
 public:
  explicit SceneOverBudgetError(const std::string& what) : Error(what) {}
};

/// SoA container of quantized splats. Plain data; thread-safe to share
/// const references across render workers.
struct QuantizedScene {
  int sh_degree = 3;
  std::vector<std::uint16_t> positions;  ///< 3 fp16 bit-patterns per splat
  std::vector<std::uint16_t> scales;     ///< 3 fp16 bit-patterns per splat
  std::vector<std::uint32_t> rotations;  ///< smallest-three packed, 1 per splat
  std::vector<std::uint8_t> opacities;   ///< round(opacity * 255), 1 per splat
  std::vector<std::uint16_t> sh;         ///< 3*(deg+1)^2 fp16 bits per splat

  std::size_t size() const { return rotations.size(); }
  bool empty() const { return rotations.empty(); }

  /// Payload bytes actually held (vector element bytes, the store's
  /// accounting unit).
  std::size_t resident_bytes() const;
};

/// Quantized payload bytes per splat at the given SH degree — the number
/// admission control multiplies by a vertex count before materializing
/// anything.
std::size_t quantized_bytes_per_splat(int sh_degree);

/// Packs a unit quaternion smallest-three: 2 bits name the
/// largest-magnitude component (sign-normalized positive), 3 x 10 bits
/// carry the remaining components scaled from [-1/sqrt(2), 1/sqrt(2)].
std::uint32_t pack_rotation(const Quatf& q);
/// Inverse of pack_rotation; reconstructs the named component from the unit
/// norm. Deterministic: same bits, same quaternion.
Quatf unpack_rotation(std::uint32_t bits);

/// Incremental quantizer: accepts splats one at a time so streaming ingest
/// (chunked PLY reading) never holds a float copy of the whole scene. It
/// and quantize() share one per-splat encoder, so both give the same bytes.
class QuantizedSceneBuilder {
 public:
  explicit QuantizedSceneBuilder(int sh_degree);

  void reserve(std::size_t splats);
  void add(const Gaussian3D& g);
  std::size_t size() const { return scene_.size(); }

  /// Moves the accumulated scene out; the builder is spent afterwards.
  QuantizedScene take();

 private:
  QuantizedScene scene_;
};

/// Whole-scene quantization (generic SceneSource fallback path). Encodes
/// contiguous splat chunks on the common::parallel_for_workers pool.
QuantizedScene quantize(const GaussianScene& scene);

/// Reconstructs the float working copy. Pure in the quantized bytes; the
/// result passes GaussianScene's checks by construction (opacity in [0,1],
/// scales >= 0 and finite, positions finite). Decodes contiguous splat
/// chunks on the common::parallel_for_workers pool into whole columns.
GaussianScene dequantize(const QuantizedScene& q);

}  // namespace gaurast::scene
