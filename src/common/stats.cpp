#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace gaurast {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  GAURAST_CHECK(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  GAURAST_CHECK(count_ > 0);
  return max_;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GAURAST_CHECK(hi > lo);
  GAURAST_CHECK(bins > 0);
}

void Histogram::add(double x, std::uint64_t weight) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  GAURAST_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] == 0 ? 0.0
                          : (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  os << "h[" << lo_ << ',' << hi_ << ")x" << counts_.size() << ':';
  for (auto c : counts_) os << ' ' << c;
  return os.str();
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  GAURAST_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::max(
      0.0, std::min(static_cast<double>(sorted.size()) - 1.0,
                    std::ceil(q * static_cast<double>(sorted.size())) - 1.0)));
  return sorted[rank];
}

void SampleWindow::add(double x) {
  if (samples_.size() < kCapacity) {
    samples_.push_back(x);
    return;
  }
  samples_[next_] = x;
  next_ = (next_ + 1) % kCapacity;
}

}  // namespace gaurast
