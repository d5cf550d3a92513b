// Aligned text tables and CSV output for benchmark harnesses.
//
// `gaurast_cli report` prints every paper table/figure through TablePrinter
// so the rows/series mirror the paper's presentation and can be diffed
// run-to-run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gaurast {

/// Builds a fixed-column text table, then renders it with aligned columns.
/// Numeric cells should be pre-formatted by the caller (see format_* below).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders to the stream with a header rule and 2-space column gaps.
  void print(std::ostream& os) const;

  /// Renders as CSV (no alignment, comma-separated, quoted when needed).
  void print_csv(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` places after the decimal point.
std::string format_fixed(double value, int digits);

/// Formats a ratio like "23.4x".
std::string format_ratio(double value, int digits = 1);

/// Formats milliseconds with an adaptive unit (us/ms/s).
std::string format_time_ms(double ms);

/// Formats an energy in millijoules with adaptive unit (uJ/mJ/J).
std::string format_energy_mj(double mj);

/// Formats a percentage like "80.3%".
std::string format_percent(double fraction, int digits = 1);

/// Prints a section banner used between report sections and experiments.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace gaurast
