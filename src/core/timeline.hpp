// Tile-level timing engine shared by the functional hardware rasterizer and
// the full-scale profile simulator.
//
// Execution model (paper Fig. 7(b)): the dispatch controller hands tiles to
// rasterizer modules as they free up. Within a module, ping-pong tile
// buffers overlap the memory fill of the next tile with PE-block compute on
// the current one; a tile's compute can only start once its fill completed
// AND the previous tile's compute finished (the PE block is shared), and a
// fill can only start once the buffer it targets was released.
//
// The dispatch controller feeds PEs from a shared per-tile pair queue
// (work-conserving), so a tile's compute time is ceil(pairs / (PEs x
// pair-rate)) plus pipeline fill/drain — the per-cycle detailed simulator
// measures the same quantity event-by-event and tests validate the two
// against each other (the repo's analogue of the paper's RTL-vs-simulator
// validation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"

namespace gaurast::core {

/// The work one tile presents to a module.
struct TileLoad {
  std::uint64_t pairs = 0;       ///< primitive-pixel pairs to evaluate
  std::uint64_t fill_bytes = 0;  ///< primitive + pixel-state traffic
};

/// Timing result for one module's tile sequence.
struct ModuleTimelineResult {
  Cycle busy_cycles = 0;     ///< cycle the last compute retires
  Cycle compute_cycles = 0;  ///< sum of per-tile compute times
  Cycle stall_cycles = 0;    ///< compute waiting on fills
  std::uint64_t pairs = 0;
};

/// Computes one tile's PE-block compute cycles for a config.
Cycle tile_compute_cycles(const TileLoad& tile,
                          const RasterizerConfig& config);

/// Computes one tile's fill cycles through the module's memory interface.
Cycle tile_fill_cycles(const TileLoad& tile, const RasterizerConfig& config);

/// Runs the ping-pong timeline for one module over its tile sequence.
ModuleTimelineResult run_module_timeline(const std::vector<TileLoad>& tiles,
                                         const RasterizerConfig& config);

/// Dispatches tiles across all modules (greedy earliest-available, matching
/// the dispatch controller) and returns the whole-design makespan.
struct DesignTimelineResult {
  Cycle makespan_cycles = 0;
  double runtime_ms = 0.0;
  double utilization = 0.0;  ///< pairs / (makespan * peak pair rate)
  std::uint64_t pairs = 0;
  Cycle stall_cycles = 0;  ///< summed over modules
};

DesignTimelineResult run_design_timeline(const std::vector<TileLoad>& tiles,
                                         const RasterizerConfig& config);

}  // namespace gaurast::core
