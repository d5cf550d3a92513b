// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in this repository (synthetic scene generation,
// workload sampling, property-test sweeps) flows through these generators so
// every run is reproducible from a single 64-bit seed. We implement PCG32
// (O'Neill 2014) seeded via SplitMix64, rather than <random>, because the
// standard engines' streams are not guaranteed identical across standard
// library implementations.
#pragma once

#include <cstdint>

namespace gaurast {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to expand one user seed
/// into independent stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG32: 64-bit state, 32-bit output permuted congruential generator.
/// Deterministic across platforms; passes BigCrush for our purposes.
class Pcg32 {
 public:
  /// Seeds state and stream-selector from a single seed via SplitMix64.
  explicit Pcg32(std::uint64_t seed = 0x853C49E6748FEA9BULL);

  /// Uniform 32-bit integer.
  std::uint32_t next_u32();

  /// Uniform 64-bit integer (two draws).
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (caches the second variate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal: exp(Normal(mu, sigma)). Used for Gaussian-scale sampling
  /// and heavy-tailed per-tile load distributions.
  double lognormal(double mu, double sigma);

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda);

  /// Leaves the generator exactly as `n` normal() calls would, without
  /// computing their values: whole Box-Muller pairs are a jump-ahead in
  /// O(log n), and only a trailing pair, whose second variate stays cached,
  /// is evaluated. A producer can keep a copy, skip a block of normals, and
  /// draw the block later (or on another thread) from the copy.
  void skip_normals(std::uint64_t n);

 private:
  /// Advances the state as `steps` next_u32() calls would, in O(log steps).
  void advance(std::uint64_t steps);

  std::uint64_t state_;
  std::uint64_t inc_;  // stream selector, always odd
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace gaurast
