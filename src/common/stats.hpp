// Latency percentiles and the bounded sample window behind them.
//
// Used by every serving-side latency figure (render service, fleet router,
// service bench) and the frame scheduler's p99 interval.
#pragma once

#include <cstddef>
#include <vector>

namespace gaurast {

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
