#include "common/prng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace gaurast {

namespace {
constexpr std::uint64_t kPcgMultiplier = 6364136223846793005ULL;
}  // namespace

Pcg32::Pcg32(std::uint64_t seed) {
  SplitMix64 mix(seed);
  state_ = mix.next();
  inc_ = mix.next() | 1ULL;
  // Advance once so trivially related seeds diverge immediately.
  (void)next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
  const auto rot = static_cast<std::uint32_t>(old >> 59U);
  return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
}

std::uint64_t Pcg32::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  GAURAST_CHECK(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint32_t threshold = (0u - bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::uniform() {
  // 53 random bits -> double in [0, 1).
  const std::uint64_t bits = next_u64() >> 11;
  return static_cast<double>(bits) * 0x1.0p-53;
}

double Pcg32::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Pcg32::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] so the log is finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Pcg32::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Pcg32::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Pcg32::exponential(double lambda) {
  GAURAST_CHECK(lambda > 0.0);
  return -std::log(1.0 - uniform()) / lambda;
}

void Pcg32::skip_normals(std::uint64_t n) {
  if (n == 0) return;
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // Every uncached normal() draws two uniforms of two u32 each and serves
  // two variates; an odd tail computes its pair and caches the second.
  advance(n / 2 * 4);
  if (n % 2 == 1) (void)normal();
}

void Pcg32::advance(std::uint64_t steps) {
  // Brown, "Random number generation with arbitrary strides" (1994): the
  // step x -> a*x + c composed `steps` times by repeated squaring.
  std::uint64_t mult = kPcgMultiplier;
  std::uint64_t plus = inc_;
  std::uint64_t acc_mult = 1;
  std::uint64_t acc_plus = 0;
  for (; steps > 0; steps >>= 1) {
    if ((steps & 1) != 0) {
      acc_mult *= mult;
      acc_plus = acc_plus * mult + plus;
    }
    plus = (mult + 1) * plus;
    mult *= mult;
  }
  state_ = acc_mult * state_ + acc_plus;
}

}  // namespace gaurast
