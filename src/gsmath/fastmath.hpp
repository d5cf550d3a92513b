// Small fast-math helpers for the optimized raster kernel.
//
// The fast kernel's inner loop stays bit-identical to the reference
// implementation by never changing the arithmetic of a *blended* pair; it
// only skips work whose result is provably discarded. The helpers here
// encode those provably-safe shortcuts (and the kernel's row-batch width)
// so the bounds live next to their justification and can be unit-tested in
// isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "gsmath/conic.hpp"

namespace gaurast {

/// Pixels per row batch in the fast raster kernel: lanes are independent
/// scalar pixels that share one per-splat skip test. 8 divides every
/// supported tile size (8/16/32/64).
inline constexpr int kRasterLaneWidth = 8;

/// Absolute slack (in Gaussian-power space, i.e. log-alpha units) subtracted
/// from the analytic cutoff below. float log/exp round to ~1 ulp (~1e-7
/// relative, so ~1e-6 absolute over the reachable power range); 1e-3 dwarfs
/// the combined rounding of the cutoff computation and the reference
/// kernel's own opacity * exp(power) evaluation.
inline constexpr float kAlphaCutoffSlack = 1e-3f;

/// Conservative lower bound on the Gaussian exponent `power`: whenever
/// power < alpha_cutoff_power(alpha_min, opacity), the reference kernel's
///   alpha = min(alpha_max, opacity * exp(power))
/// is guaranteed to land below alpha_min, i.e. the pair is discarded by the
/// blend threshold. The fast kernel uses this to skip the exp() for pairs
/// that cannot contribute, without ever skipping a pair the reference
/// kernel blends (which would break bit-identity).
///
/// Derivation: opacity * exp(power) < alpha_min  <=>
/// power < log(alpha_min / opacity); kAlphaCutoffSlack absorbs rounding.
inline float alpha_cutoff_power(float alpha_min, float opacity) {
  if (!(alpha_min > 0.0f)) {
    // alpha_min <= 0 blends every pair (even alpha == 0), so no power is
    // provably discardable: -inf is below nothing, not even power == -inf
    // (an overflowed exponent must still blend as the reference's exact
    // alpha == 0 no-op in this regime).
    return -std::numeric_limits<float>::infinity();
  }
  if (std::isnan(opacity)) {
    // No bound is provable through a NaN: never skip, so the kernel
    // evaluates the pair with the reference arithmetic (where
    // min(alpha_max, NaN) blends at alpha_max).
    return -std::numeric_limits<float>::infinity();
  }
  if (opacity <= 0.0f) {
    // alpha <= 0 < alpha_min for every power: always discardable (+inf
    // powers never reach the cutoff test — the power > 0 guard runs first).
    return std::numeric_limits<float>::infinity();
  }
  return std::log(alpha_min / opacity) - kAlphaCutoffSlack;
}

/// Share of its conic terms each band coefficient gives up to float
/// rounding (see power_band). The fast kernel's float power rounds at most
/// four times along any term, so it exceeds the exact power by under
/// 4 * 2^-24 of 1/2 (a dx^2 + c dy^2) + |b dx dy|; maximised over the free
/// offset that costs ky at most ~2.4e-7 * (c/2 + 3/2 b^2/a). This margin,
/// 1e-5 * (c + 2 b^2/a), covers that, the rounding of the skip test and the
/// double-precision band arithmetic ~50 times over (kx symmetrically).
inline constexpr double kPowerBandMargin = 1e-5;

/// Largest magnitude any float intermediate of the power may reach for a
/// band to be kept: ~30x below FLT_MAX, so nothing overflows to inf (an
/// inf - inf power is NaN, and a NaN power blends at alpha_max).
inline constexpr double kPowerBandMaxTerm = 1e37;

/// A splat's row and column bands: how far from its mean a pixel row or
/// column lies where the Gaussian power is provably below its cutoff.
///
/// Completing the square of the conic (a, b, c) gives, for every offset,
///   power = -1/2 (a dx^2 + 2 b dx dy + c dy^2) <= -ky dy^2,
///   ky = 1/2 (c - b^2/a),  and symmetrically  power <= -kx dx^2,
///   kx = 1/2 (a - b^2/c).
/// Each field is its coefficient less kPowerBandMargin's share, divided by
/// -cutoff and rounded toward zero, so for the float offsets d and squares
/// d*d the fast kernel computes
///   (dy*dy) * y > 1  or  (dx*dx) * x > 1   implies   power < cutoff,
/// i.e. the reference kernel discards the pair. 0 is "no band": the test
/// then never passes.
struct PowerBand {
  float x = 0.0f;  ///< column band coefficient over -cutoff
  float y = 0.0f;  ///< row band coefficient over -cutoff
};

namespace detail {
/// `value` rounded toward zero to float; 0 for NaN or value <= 0. Branch
/// free where it rounds, since which way nearest rounding went is random.
inline float round_toward_zero_to_float(double value) {
  if (!(value > 0.0)) return 0.0f;
  const double capped =
      std::min(value, static_cast<double>(std::numeric_limits<float>::max()));
  const float nearest = static_cast<float>(capped);
  // A positive float's bit pattern minus one is the next float toward 0.
  std::uint32_t bits;
  std::memcpy(&bits, &nearest, sizeof(bits));
  bits -= static_cast<std::uint32_t>(static_cast<double>(nearest) > capped);
  float result;
  std::memcpy(&result, &bits, sizeof(result));
  return result;
}
}  // namespace detail

/// power_band for a splat centred at `mean` in a width x height frame whose
/// pixel centres are (px + 0.5, py + 0.5). No band (both fields 0) when
/// skipping could change a result:
///  * the cutoff is non-finite, >= 0 or subnormal: -inf never skips, and
///    with cutoff >= 0 the only pairs that can blend are NaN powers;
///  * the conic is not finite or not positive definite;
///  * the mean is not finite, or some pixel centre of the frame could
///    overflow a float term of the power (kPowerBandMaxTerm).
/// Pixel centres are >= 0.5, so float offsets are 0 or at least 2^-26 and
/// their squares never underflow; the only underflow left is in products
/// with a tiny conic entry, under 2^-147 in all, which a cutoff of at most
/// -FLT_MIN leaves the margin to absorb.
inline PowerBand power_band(const Conic2& conic, Vec2f mean, float cutoff,
                            int width, int height) {
  PowerBand band;
  if (std::isinf(cutoff) ||
      !(cutoff <= -std::numeric_limits<float>::min())) {
    return band;
  }
  const double a = conic.a;
  const double b = conic.b;
  const double c = conic.c;
  // The products of floats are exact in double, so the sign test is too.
  if (!std::isfinite(a) || !std::isfinite(b) || !std::isfinite(c) ||
      !(a > 0.0 && c > 0.0 && a * c - b * b > 0.0)) {
    return band;
  }
  const double last_x = static_cast<double>(width) - 0.5;
  const double last_y = static_cast<double>(height) - 0.5;
  const double rx =
      std::max(std::abs(0.5 - mean.x), std::abs(last_x - mean.x));
  const double ry =
      std::max(std::abs(0.5 - mean.y), std::abs(last_y - mean.y));
  // Bounds dx^2, a dx^2, dy^2, c dy^2, their sum and |b dx dy| at once;
  // NaN for a NaN or infinite mean.
  const double largest =
      (1.0 + a) * rx * rx + (1.0 + c) * ry * ry + std::abs(b) * rx * ry;
  if (!(largest <= kPowerBandMaxTerm)) return band;

  const double b2a = b * b / a;
  const double b2c = b * b / c;
  const double limit = -static_cast<double>(cutoff);
  const double ky = 0.5 * (c - b2a) - kPowerBandMargin * (c + 2.0 * b2a);
  const double kx = 0.5 * (a - b2c) - kPowerBandMargin * (a + 2.0 * b2c);
  band.y = detail::round_toward_zero_to_float(ky / limit);
  band.x = detail::round_toward_zero_to_float(kx / limit);
  return band;
}

}  // namespace gaurast
