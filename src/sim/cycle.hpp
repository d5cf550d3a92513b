// The clock unit of the GauRast hardware models: the analytic tile
// timeline (core/timeline.hpp) and the per-cycle detailed module
// (core/detailed_sim.hpp) both count time in cycles of the module clock.
#pragma once

#include <cstdint>

namespace gaurast::sim {

using Cycle = std::uint64_t;

}  // namespace gaurast::sim
