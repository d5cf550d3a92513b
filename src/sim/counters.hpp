// Named event counters for hardware activity accounting.
//
// Every datapath operation the PE model performs is counted here; the
// EnergyModel converts the final counts into joules. Keeping counting
// separate from energy lets tests assert exact op counts (paper Table II)
// without touching the energy tables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gaurast::sim {

class CounterSet {
 public:
  /// Heterogeneous lookup avoids a std::string allocation per increment.
  /// Each call is still a map lookup, so the Gaussian hardware model counts
  /// in plain integers and charges its totals once per frame.
  void increment(std::string_view name, std::uint64_t by = 1) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
      it->second += by;
    } else {
      counters_.emplace(std::string(name), by);
    }
  }

  std::uint64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  const std::map<std::string, std::uint64_t, std::less<>>& all() const {
    return counters_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// Canonical datapath-op counter names shared by the PE model and the
/// energy/area tables. Using constants avoids silent typo mismatches.
namespace ops {
inline constexpr const char* kFp32Add = "fp32.add";
inline constexpr const char* kFp32Mul = "fp32.mul";
inline constexpr const char* kFp32Div = "fp32.div";
inline constexpr const char* kFp32Exp = "fp32.exp";
inline constexpr const char* kFp32Cmp = "fp32.cmp";
inline constexpr const char* kBufRead = "buf.read";
inline constexpr const char* kBufWrite = "buf.write";
inline constexpr const char* kMemBytes = "mem.bytes";
inline constexpr const char* kPairsProcessed = "pe.pairs";
inline constexpr const char* kPairsCulled = "pe.pairs_culled";
inline constexpr const char* kPrimitives = "pe.primitives";
}  // namespace ops

}  // namespace gaurast::sim
