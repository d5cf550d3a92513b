// The paper-reproduction report printed by `gaurast_cli report`.
#pragma once

#include <iosfwd>

namespace gaurast::report {

/// Prints every paper artifact (headline summary, Tables I-III, Figs.
/// 4/5/9/10/11, Secs. V-A/V-C/V-D and ablations (a)-(g)), each modeled
/// number beside the paper's. The output is deterministic and pinned byte
/// for byte by tests/golden/report.txt.
void print_report(std::ostream& os);

}  // namespace gaurast::report
