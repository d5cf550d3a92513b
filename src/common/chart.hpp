// ASCII bar charts for the paper-reproduction report.
//
// The paper's evaluation artifacts are mostly bar charts (Figs. 4, 10, 11);
// rendering the same series as text bars next to the tables makes
// `gaurast_cli report` visually comparable to the paper page without any
// plotting dependency.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gaurast {

/// One bar: label + value (values must be >= 0).
struct ChartBar {
  std::string label;
  double value = 0.0;
};

/// A grouped bar chart: one group of bars per series entry.
class BarChart {
 public:
  explicit BarChart(std::string title, std::string unit = "");

  void add_bar(const std::string& label, double value);

  /// Renders horizontal bars scaled to `width` characters.
  void print(std::ostream& os, int width = 48) const;

  std::size_t size() const { return bars_.size(); }

 private:
  std::string title_;
  std::string unit_;
  std::vector<ChartBar> bars_;
};

}  // namespace gaurast
