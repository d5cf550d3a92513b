// Streaming summary statistics, histograms, and latency percentiles.
//
// Used by the simulators (per-tile occupancy, queue depths, per-pixel blend
// depth), the workload calibration machinery, and every serving-side
// latency figure (render service, fleet router, service bench).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gaurast {

/// Welford streaming accumulator: count, mean, variance, min, max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bin linear histogram over [lo, hi); out-of-range samples clamp into
/// the first/last bin so totals are conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Value below which `q` (0..1) of the mass lies (linear within a bin).
  double quantile(double q) const;

  /// Compact one-line render for logs: "h[0,10)x8: 3 1 0 ...".
  std::string to_string() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Exact nearest-rank percentile (q in [0, 1]) of an ascending-sorted
/// sample: the smallest sample with at least a q share of the set at or
/// below it. 0 for an empty sample. The one percentile definition behind
/// every latency figure the serving stack reports.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The most recent kCapacity samples, oldest overwritten first once full,
/// so a long-lived process's latency figures cost bounded memory. Until it
/// wraps, samples() is in insertion order.
class SampleWindow {
 public:
  static constexpr std::size_t kCapacity = 65536;

  void add(double x);

  std::size_t size() const { return samples_.size(); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t next_ = 0;  ///< slot the next add overwrites once full
  std::vector<double> samples_;
};

}  // namespace gaurast
