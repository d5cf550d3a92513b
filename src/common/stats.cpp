#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gaurast {

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
