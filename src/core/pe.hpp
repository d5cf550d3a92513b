// Processing Element functional datapath (paper Fig. 7(c), Table II).
//
// Each PE supports two modes sharing one arithmetic pool:
//   Triangle mode (pre-existing): coordinate shift -> edge-function
//     intersection detection -> barycentric (UV) weight via the dedicated
//     divider -> min-depth color hold.
//   Gaussian mode (the enhancement): coordinate shift -> conic quadratic
//     form + dedicated exponentiation unit -> color weight -> front-to-back
//     accumulation.
//
// The functional arithmetic is byte-identical to the software pipelines
// (pipeline/rasterize.hpp, mesh/raster.hpp) so hardware-model images match
// the software reference exactly; retired operations are tallied into an
// OpCounts using the *hardware* op inventory (incremental edge evaluation
// for triangles), which feeds the energy model. Every per-pair and
// per-primitive cost is one OpCounts row below. Gaussian mode tallies by
// branch outcome: the datapath reports which branch a pair took, and a
// frame's op counts are its outcome counts times kGaussianPairOps.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/half.hpp"
#include "core/config.hpp"
#include "mesh/raster.hpp"
#include "pipeline/rasterize.hpp"

namespace gaurast::core {

/// Static resource inventory of one PE, as synthesized (paper Sec. IV-B):
/// the triangle rasterizer contributes 9 adders, 9 multipliers and one
/// divider; Gaussian support adds 2 adders, 1 multiplier and 1 exp unit.
struct PeResources {
  int shared_adders = 9;
  int shared_multipliers = 9;
  int triangle_dividers = 1;
  int gaussian_adders = 2;
  int gaussian_multipliers = 1;
  int gaussian_exp_units = 1;

  int total_adders() const { return shared_adders + gaussian_adders; }
  int total_multipliers() const {
    return shared_multipliers + gaussian_multipliers;
  }
};

/// The branch of the Gaussian-mode datapath a pixel-splat pair took.
enum class GaussianOutcome : std::uint8_t {
  kGuarded,   ///< power > 0: the numerical guard stops it before the exp unit
  kRejected,  ///< alpha < alpha_min: evaluated, below the blend threshold
  kBlended,   ///< accumulated into the pixel's blend state
};
inline constexpr std::size_t kGaussianOutcomes = 3;

/// Ops per Gaussian pair by outcome (paper Table II), indexed by
/// GaussianOutcome: the one statement of Gaussian-mode op costs, read by
/// the hardware model's tally, the energy model and the unit tests.
inline constexpr std::array<OpCounts, kGaussianOutcomes> kGaussianPairOps{{
    // Guarded: 2 shift + 2 power sum; 6 quadratic form; the guard.
    {.adds = 4, .muls = 6, .cmps = 1},
    // Rejected: + opacity * exp; the exp unit; + clamp and threshold.
    {.adds = 4, .muls = 7, .exps = 1, .cmps = 3},
    // Blended: + 3 accumulate + (1 - alpha); + T * alpha, 3 color scales
    // and the T update.
    {.adds = 8, .muls = 12, .exps = 1, .cmps = 3},
}};

constexpr const OpCounts& gaussian_pair_ops(GaussianOutcome outcome) {
  return kGaussianPairOps[static_cast<std::size_t>(outcome)];
}

/// Pair counts indexed by GaussianOutcome.
using GaussianOutcomeCounts = std::array<std::uint64_t, kGaussianOutcomes>;

/// Triangle-mode ops per pair (incremental edge form). A pixel the
/// triangle misses pays 3 edge increments and 3 inside tests.
inline constexpr OpCounts kTriangleMissOps{.adds = 3, .cmps = 3};
/// A covered pixel pays the miss row plus barycentric weights (3 muls by
/// 1/2A from setup), attribute interpolation (depth and color on the shared
/// units: 6 muls, 6 adds) and the depth compare.
inline constexpr OpCounts kTriangleHitOps{.adds = 9, .muls = 9, .cmps = 4};
/// Per-primitive triangle setup, charged once per primitive that bins to at
/// least one tile (one that bins to none never reaches a PE block):
/// 1 / (2 * area) on the divider.
inline constexpr OpCounts kTriangleSetupOps{.adds = 5, .muls = 2, .divs = 1};

/// Pixel-state read-modify-write traffic per evaluated pair, in either
/// mode, split evenly between read and write.
inline constexpr OpCounts kPairStateBytes{.buf_read_bytes = 10,
                                          .buf_write_bytes = 10};

/// Result of one Gaussian pair evaluation.
struct GaussianPairResult {
  GaussianOutcome outcome = GaussianOutcome::kGuarded;
  float alpha = 0.0f;  ///< post-clamp alpha; 0 when guarded

  bool blended() const { return outcome == GaussianOutcome::kBlended; }
};

namespace detail {
/// Rounds through binary16 for the FP16 datapath; identity for FP32, so the
/// FP32 instantiation carries no rounding at all.
template <Precision P>
inline float round_to(float v) {
  if constexpr (P == Precision::kFp16) {
    return round_to_half(v);
  } else {
    return v;
  }
}
}  // namespace detail

/// The PE's Gaussian-mode datapath for one pair: evaluates alpha at the
/// pixel and, if above threshold, performs the front-to-back accumulate on
/// `state`. In FP16 every intermediate rounds through binary16. Counts
/// nothing; the returned outcome selects the op row to charge.
template <Precision P>
inline GaussianPairResult gaussian_datapath(
    const pipeline::Splat2D& splat, Vec2f pixel,
    pipeline::PixelBlendState& state, const pipeline::BlendParams& params) {
  using detail::round_to;
  GaussianPairResult result;

  // Subtask 1 - coordinate shift.
  const float dx = round_to<P>(pixel.x - splat.mean.x);
  const float dy = round_to<P>(pixel.y - splat.mean.y);

  // Subtask 2 - Gaussian probability: power = -1/2 d^T Conic d, then the
  // dedicated exp unit.
  const float dx2 = round_to<P>(dx * dx);
  const float dy2 = round_to<P>(dy * dy);
  const float dxdy = round_to<P>(dx * dy);
  const float qa = round_to<P>(splat.conic.a * dx2);
  const float qc = round_to<P>(splat.conic.c * dy2);
  const float qb = round_to<P>(splat.conic.b * dxdy);
  const float power = round_to<P>(-0.5f * round_to<P>(qa + qc) - qb);

  // Numerical guard identical to the reference kernel.
  if (power > 0.0f) return result;

  const float e = round_to<P>(std::exp(power));
  float alpha = round_to<P>(splat.opacity * e);
  if (alpha > params.alpha_max) alpha = params.alpha_max;
  result.alpha = alpha;

  // Threshold: contributions below 1/255 are skipped.
  if (alpha < params.alpha_min) {
    result.outcome = GaussianOutcome::kRejected;
    return result;
  }

  // Subtask 3 - color weight (T * alpha, then per-channel scale).
  const float w = round_to<P>(state.transmittance * alpha);
  const Vec3f weighted{round_to<P>(splat.color.x * w),
                       round_to<P>(splat.color.y * w),
                       round_to<P>(splat.color.z * w)};

  // Subtask 4 - color accumulation and transmittance update.
  state.accumulated = {round_to<P>(state.accumulated.x + weighted.x),
                       round_to<P>(state.accumulated.y + weighted.y),
                       round_to<P>(state.accumulated.z + weighted.z)};
  const float one_minus = round_to<P>(1.0f - alpha);
  state.transmittance = round_to<P>(state.transmittance * one_minus);

  result.outcome = GaussianOutcome::kBlended;
  return result;
}

/// gaussian_datapath at a run-time precision, adding the taken outcome's
/// op row to `counters`.
GaussianPairResult pe_gaussian_pair(const pipeline::Splat2D& splat,
                                    Vec2f pixel,
                                    pipeline::PixelBlendState& state,
                                    const pipeline::BlendParams& params,
                                    Precision precision, OpCounts& counters);

/// The PE's triangle-mode per-pair operation: coverage test, attribute
/// interpolation and min-depth color hold against (depth, color), adding
/// the miss or hit row to `counters`. Returns true when the fragment won
/// the depth test.
bool pe_triangle_pair(const mesh::ScreenTriangle& tri, Vec2f pixel,
                      float& depth_state, Vec3f& color_state,
                      Precision precision, OpCounts& counters);

}  // namespace gaurast::core
