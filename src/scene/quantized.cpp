#include "scene/quantized.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/parallel_for.hpp"
#include "gsmath/sh.hpp"

namespace gaurast::scene {

namespace {

/// Largest finite fp16 value; inputs are clamped here so quantization never
/// manufactures an infinity (GaussianScene::add requires finite positions).
constexpr float kHalfMax = 65504.0f;

constexpr float kInvSqrt2 = 0.70710678118654752440f;

std::uint16_t to_half(float v) {
  return float_to_half_bits(std::clamp(v, -kHalfMax, kHalfMax));
}

float from_half(std::uint16_t bits) { return half_bits_to_float(bits); }

/// 10-bit code for a component in [-1/sqrt(2), 1/sqrt(2)].
std::uint32_t encode_component(float v) {
  const float s = std::clamp(v / kInvSqrt2, -1.0f, 1.0f);
  const long code = std::lround((s + 1.0f) * 0.5f * 1023.0f);
  return static_cast<std::uint32_t>(std::clamp(code, 0L, 1023L));
}

float decode_component(std::uint32_t code) {
  const float s =
      static_cast<float>(code) * (2.0f / 1023.0f) - 1.0f;
  return s * kInvSqrt2;
}

/// Fewest splats per chunk when a whole scene is (de)quantized: below this
/// a chunk costs more to hand out than it saves.
constexpr std::size_t kMinSplatsPerChunk = 256;

/// Sizes every array of `q` for `splats` splats.
void resize(QuantizedScene& q, std::size_t splats) {
  q.positions.resize(splats * 3);
  q.scales.resize(splats * 3);
  q.rotations.resize(splats);
  q.opacities.resize(splats);
  q.sh.resize(splats * sh_basis_count(q.sh_degree) * 3);
}

/// Quantizes one splat into slot `i` of arrays already sized for it.
void encode_splat(QuantizedScene& q, std::size_t i, Vec3f position,
                  Vec3f scale, const Quatf& rotation, float opacity,
                  const ShCoefficients& sh) {
  for (std::size_t axis = 0; axis < 3; ++axis) {
    q.positions[i * 3 + axis] = to_half(position[axis]);
    // Scales are >= 0 by the scene invariant; fp16 rounding of a
    // non-negative float is non-negative, so the dequantized scene passes
    // the same check.
    q.scales[i * 3 + axis] = to_half(scale[axis]);
  }
  q.rotations[i] = pack_rotation(rotation.normalized());
  q.opacities[i] = static_cast<std::uint8_t>(
      std::lround(std::clamp(opacity, 0.0f, 1.0f) * 255.0f));
  const std::size_t bands = sh_basis_count(q.sh_degree);
  for (std::size_t band = 0; band < bands; ++band) {
    for (std::size_t c = 0; c < 3; ++c) {
      q.sh[(i * bands + band) * 3 + c] = to_half(sh[band][c]);
    }
  }
}

}  // namespace

std::size_t QuantizedScene::resident_bytes() const {
  return positions.size() * sizeof(std::uint16_t) +
         scales.size() * sizeof(std::uint16_t) +
         rotations.size() * sizeof(std::uint32_t) +
         opacities.size() * sizeof(std::uint8_t) +
         sh.size() * sizeof(std::uint16_t);
}

std::size_t quantized_bytes_per_splat(int sh_degree) {
  const std::size_t sh_values = sh_basis_count(sh_degree) * 3;
  // pos 3xfp16 + scale 3xfp16 + rot u32 + opacity u8 + SH fp16 each.
  return 3 * 2 + 3 * 2 + 4 + 1 + sh_values * 2;
}

std::uint32_t pack_rotation(const Quatf& q) {
  const float comps[4] = {q.w, q.x, q.y, q.z};
  std::size_t largest = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    if (std::fabs(comps[i]) > std::fabs(comps[largest])) largest = i;
  }
  // q and -q rotate identically; normalize the sign so the dropped
  // component is always non-negative and reconstructible from the norm.
  const float sign = comps[largest] < 0.0f ? -1.0f : 1.0f;
  std::uint32_t bits = static_cast<std::uint32_t>(largest) << 30;
  int shift = 20;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == largest) continue;
    bits |= encode_component(sign * comps[i]) << shift;
    shift -= 10;
  }
  return bits;
}

Quatf unpack_rotation(std::uint32_t bits) {
  const std::size_t largest = bits >> 30;
  float comps[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  int shift = 20;
  float norm_sq = 0.0f;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == largest) continue;
    const float v = decode_component((bits >> shift) & 0x3ffu);
    comps[i] = v;
    norm_sq += v * v;
    shift -= 10;
  }
  comps[largest] = std::sqrt(std::max(0.0f, 1.0f - norm_sq));
  return Quatf{comps[0], comps[1], comps[2], comps[3]};
}

QuantizedSceneBuilder::QuantizedSceneBuilder(int sh_degree) {
  GAURAST_CHECK(sh_degree >= 0 && sh_degree <= 3);
  scene_.sh_degree = sh_degree;
}

void QuantizedSceneBuilder::reserve(std::size_t splats) {
  scene_.positions.reserve(splats * 3);
  scene_.scales.reserve(splats * 3);
  scene_.rotations.reserve(splats);
  scene_.opacities.reserve(splats);
  scene_.sh.reserve(splats * sh_basis_count(scene_.sh_degree) * 3);
}

void QuantizedSceneBuilder::add(const Gaussian3D& g) {
  const std::size_t i = scene_.size();
  resize(scene_, i + 1);
  encode_splat(scene_, i, g.position, g.scale, g.rotation, g.opacity, g.sh);
}

QuantizedScene QuantizedSceneBuilder::take() { return std::move(scene_); }

QuantizedScene quantize(const GaussianScene& scene) {
  QuantizedScene q;
  q.sh_degree = scene.sh_degree();
  const std::size_t n = scene.size();
  resize(q, n);
  const std::size_t chunks = common::chunks_for(n, kMinSplatsPerChunk);
  common::parallel_for_workers(chunks, [&](std::size_t c) {
    const std::size_t end = n * (c + 1) / chunks;
    for (std::size_t i = n * c / chunks; i < end; ++i) {
      encode_splat(q, i, scene.positions()[i], scene.scales()[i],
                   scene.rotations()[i], scene.opacities()[i],
                   scene.sh()[i]);
    }
  });
  return q;
}

GaussianScene dequantize(const QuantizedScene& q) {
  const std::size_t n = q.size();
  const std::size_t bands = sh_basis_count(q.sh_degree);
  std::vector<Vec3f> positions(n);
  std::vector<Vec3f> scales(n);
  std::vector<Quatf> rotations(n);
  std::vector<float> opacities(n);
  std::vector<ShCoefficients> sh(n);  // bands above the degree stay zero
  const std::size_t chunks = common::chunks_for(n, kMinSplatsPerChunk);
  common::parallel_for_workers(chunks, [&](std::size_t c) {
    const std::size_t end = n * (c + 1) / chunks;
    for (std::size_t i = n * c / chunks; i < end; ++i) {
      positions[i] = {from_half(q.positions[i * 3 + 0]),
                      from_half(q.positions[i * 3 + 1]),
                      from_half(q.positions[i * 3 + 2])};
      scales[i] = {from_half(q.scales[i * 3 + 0]),
                   from_half(q.scales[i * 3 + 1]),
                   from_half(q.scales[i * 3 + 2])};
      rotations[i] = unpack_rotation(q.rotations[i]);
      opacities[i] = static_cast<float>(q.opacities[i]) / 255.0f;
      for (std::size_t band = 0; band < bands; ++band) {
        sh[i][band] = {from_half(q.sh[(i * bands + band) * 3 + 0]),
                       from_half(q.sh[(i * bands + band) * 3 + 1]),
                       from_half(q.sh[(i * bands + band) * 3 + 2])};
      }
    }
  });
  return GaussianScene::from_columns(q.sh_degree, std::move(positions),
                                     std::move(scales), std::move(rotations),
                                     std::move(opacities), std::move(sh));
}

}  // namespace gaurast::scene
