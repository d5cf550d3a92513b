// IEEE 754 binary16 (half precision) emulation.
//
// The GauRast FP16 variant (paper Sec. V-C, GSCore comparison) computes the
// Gaussian datapath in half precision. We emulate binary16 in software:
// values are stored as 16-bit patterns and every arithmetic operation
// round-trips through float with round-to-nearest-even conversion, which is
// exactly the behaviour of an FP16 FMA-less datapath that normalizes after
// each operation.
//
// Both conversions are branch-free: each computes the normal, subnormal and
// Inf/NaN results and selects one, so a stream of mixed values (scene
// quantization, the FP16 datapath) never pays for a mispredicted rounding
// branch. tests/common_test.cpp checks them against a branchy reference
// over every float and every half bit pattern.
#pragma once

#include <bit>
#include <cstdint>

namespace gaurast {

/// Converts a float to the nearest IEEE binary16 bit pattern
/// (round-to-nearest-even, with overflow to infinity and gradual underflow
/// to subnormals). A NaN keeps its top 10 payload bits and is forced quiet.
inline std::uint16_t float_to_half_bits(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t mag = f & 0x7FFFFFFFu;
  // Normal half: rebias the exponent from 127 to 15, then round the 13
  // dropped mantissa bits to nearest even by integer carry: 0xFFF carries
  // only above the halfway point, and the kept LSB supplies the carry on
  // an exact tie to odd. A carry out of the mantissa bumps the exponent,
  // up to infinity (0x7C00) past 65504.
  const std::uint32_t normal =
      (mag - ((127u - 15u) << 23) + 0xFFFu + ((mag >> 13) & 1u)) >> 13;
  // Subnormal half or zero (|value| < 2^-14): adding 0.5f, whose ULP is
  // the half subnormal step 2^-24, rounds to nearest even in the FPU, and
  // the sum's low mantissa bits are the half's. 2^-14 itself rounds up to
  // 0x400, the smallest normal.
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(mag) + 0.5f) -
      std::bit_cast<std::uint32_t>(0.5f);
  // Overflow is infinity; a NaN keeps its payload's top bits plus the
  // quiet bit, so no NaN collapses to infinity.
  const std::uint32_t special =
      0x7C00u | (mag > 0x7F800000u ? 0x0200u | ((mag >> 13) & 0x3FFu) : 0u);
  std::uint32_t half = mag < (113u << 23) ? subnormal : normal;
  half = mag >= (143u << 23) ? special : half;
  return static_cast<std::uint16_t>(sign | half);
}

/// Converts an IEEE binary16 bit pattern to float (exact).
inline float half_bits_to_float(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t mag = bits & 0x7FFFu;
  const std::uint32_t exponent = mag >> 10;
  // Normal: widen the mantissa and rebias the exponent from 15 to 127.
  const std::uint32_t normal = (mag << 13) + ((127u - 15u) << 23);
  // Subnormal or zero: 0.5f with the half's mantissa as its low bits is
  // exactly 0.5 + m * 2^-24, so subtracting 0.5f leaves m * 2^-24 exactly.
  const std::uint32_t subnormal = std::bit_cast<std::uint32_t>(
      std::bit_cast<float>(std::bit_cast<std::uint32_t>(0.5f) | mag) - 0.5f);
  const std::uint32_t special = 0x7F800000u | ((mag & 0x3FFu) << 13);
  std::uint32_t out = exponent == 0 ? subnormal : normal;
  out = exponent == 0x1Fu ? special : out;
  return std::bit_cast<float>(sign | out);
}

/// Value type wrapping a binary16 pattern. Arithmetic is performed in float
/// and rounded back to binary16 after every operation.
class Half {
 public:
  Half() = default;
  explicit Half(float value) : bits_(float_to_half_bits(value)) {}

  static Half from_bits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  float to_float() const { return half_bits_to_float(bits_); }
  std::uint16_t bits() const { return bits_; }

  bool is_nan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  bool is_inf() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) == 0;
  }

  friend Half operator+(Half a, Half b) {
    return Half(a.to_float() + b.to_float());
  }
  friend Half operator-(Half a, Half b) {
    return Half(a.to_float() - b.to_float());
  }
  friend Half operator*(Half a, Half b) {
    return Half(a.to_float() * b.to_float());
  }
  friend Half operator/(Half a, Half b) {
    return Half(a.to_float() / b.to_float());
  }
  friend bool operator==(Half a, Half b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Half a, Half b) { return !(a == b); }

 private:
  std::uint16_t bits_ = 0;
};

/// Rounds a float through binary16 and back; convenience for datapaths that
/// keep float storage but model FP16 unit precision.
inline float round_to_half(float value) {
  return half_bits_to_float(float_to_half_bits(value));
}

}  // namespace gaurast
