#include "common/chart.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/error.hpp"

namespace gaurast {

BarChart::BarChart(std::string title, std::string unit)
    : title_(std::move(title)), unit_(std::move(unit)) {}

void BarChart::add_bar(const std::string& label, double value) {
  GAURAST_CHECK_MSG(value >= 0.0, "negative bar value " << value);
  bars_.push_back({label, value});
}

void BarChart::print(std::ostream& os, int width) const {
  GAURAST_CHECK(width > 0);
  os << title_ << (unit_.empty() ? "" : " [" + unit_ + "]") << '\n';
  if (bars_.empty()) return;
  double max_value = 0.0;
  std::size_t label_width = 0;
  for (const ChartBar& b : bars_) {
    max_value = std::max(max_value, b.value);
    label_width = std::max(label_width, b.label.size());
  }
  for (const ChartBar& b : bars_) {
    const int filled =
        max_value > 0.0
            ? static_cast<int>(b.value / max_value * width + 0.5)
            : 0;
    os << "  " << std::left << std::setw(static_cast<int>(label_width))
       << b.label << " |" << std::string(static_cast<std::size_t>(filled), '#')
       << std::string(static_cast<std::size_t>(width - filled), ' ') << "| "
       << std::setprecision(3) << b.value << '\n';
  }
}

}  // namespace gaurast
