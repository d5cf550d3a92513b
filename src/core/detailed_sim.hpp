// Per-cycle detailed simulation of one GauRast rasterizer module.
//
// This is the repo's analogue of the paper's RTL simulation: a
// cycle-by-cycle model where every PE retires individual pairs, fills stream
// byte-by-byte through the memory interface, and the ping-pong buffers move
// through Free -> Filling -> Ready -> Draining states. The fast tile-level
// timeline (core/timeline.hpp) is validated against this model in tests,
// mirroring the paper's "simulator validated against RTL" methodology.
#pragma once

#include "core/config.hpp"
#include "core/timeline.hpp"

namespace gaurast::core {

struct DetailedSimResult {
  Cycle cycles = 0;
  std::uint64_t pairs = 0;
  double utilization = 0.0;     ///< retired pairs / PE-cycle slots
  std::uint64_t fill_stall_cycles = 0;  ///< PE block idle waiting on fills
};

/// Runs one module over the tile sequence to completion. Throws
/// gaurast::Error if it is not done within `max_cycles` (deadlock guard).
DetailedSimResult run_detailed_module_sim(const std::vector<TileLoad>& tiles,
                                          const RasterizerConfig& config,
                                          Cycle max_cycles = 200000000);

}  // namespace gaurast::core
