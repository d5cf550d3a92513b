#include "core/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gaurast::core {

Cycle tile_compute_cycles(const TileLoad& tile,
                          const RasterizerConfig& config) {
  if (tile.pairs == 0) return 0;
  const auto rate = static_cast<std::uint64_t>(config.pes_per_module) *
                    static_cast<std::uint64_t>(config.pairs_per_cycle_per_pe());
  return (tile.pairs + rate - 1) / rate +
         static_cast<Cycle>(config.pipeline_depth);
}

Cycle tile_fill_cycles(const TileLoad& tile, const RasterizerConfig& config) {
  if (tile.fill_bytes == 0) return 0;
  const auto transfer = static_cast<Cycle>(std::ceil(
      static_cast<double>(tile.fill_bytes) / config.mem_bytes_per_cycle));
  return transfer + config.mem_latency;
}

ModuleTimelineResult run_module_timeline(const std::vector<TileLoad>& tiles,
                                         const RasterizerConfig& config) {
  ModuleTimelineResult result;
  // buffer_free[i]: cycle at which ping-pong buffer i can accept a new fill.
  Cycle buffer_free[2] = {0, 0};
  Cycle mem_free = 0;  // memory interface serializes transfers
  Cycle pe_free = 0;   // PE block serializes tile computes
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const int buf = static_cast<int>(i & 1);
    const Cycle fill_start = std::max(buffer_free[buf], mem_free);
    const Cycle fill = tile_fill_cycles(tiles[i], config);
    const Cycle fill_done = fill_start + fill;
    // The fixed access latency pipelines with the next transfer; only the
    // byte transfer occupies the memory interface.
    if (fill > 0) mem_free = fill_done - config.mem_latency;
    const Cycle compute = tile_compute_cycles(tiles[i], config);
    const Cycle compute_start = std::max(fill_done, pe_free);
    if (compute_start > pe_free) result.stall_cycles += compute_start - pe_free;
    const Cycle compute_done = compute_start + compute;
    pe_free = compute_done;
    buffer_free[buf] = compute_done;  // buffer released when drained
    result.compute_cycles += compute;
    result.pairs += tiles[i].pairs;
  }
  result.busy_cycles = pe_free;
  return result;
}

DesignTimelineResult run_design_timeline(const std::vector<TileLoad>& tiles,
                                         const RasterizerConfig& config) {
  config.validate();
  // Greedy streaming dispatch: each tile (in screen order) goes to the
  // module with the least accumulated work, matching a dispatcher that
  // hands the next tile to the first module to free up.
  const int modules = config.module_count;
  std::vector<std::vector<TileLoad>> per_module(
      static_cast<std::size_t>(modules));
  std::vector<double> load(static_cast<std::size_t>(modules), 0.0);
  for (const TileLoad& tile : tiles) {
    std::size_t best = 0;
    for (std::size_t m = 1; m < load.size(); ++m) {
      if (load[m] < load[best]) best = m;
    }
    per_module[best].push_back(tile);
    load[best] += static_cast<double>(std::max(
        tile_compute_cycles(tile, config), tile_fill_cycles(tile, config)));
  }

  DesignTimelineResult result;
  for (const auto& seq : per_module) {
    const ModuleTimelineResult m = run_module_timeline(seq, config);
    result.makespan_cycles = std::max(result.makespan_cycles, m.busy_cycles);
    result.pairs += m.pairs;
    result.stall_cycles += m.stall_cycles;
  }
  result.runtime_ms = static_cast<double>(result.makespan_cycles) /
                      (config.clock_ghz * 1e9) * 1e3;
  const double slot_pairs =
      static_cast<double>(result.makespan_cycles) *
      static_cast<double>(config.total_pes()) *
      static_cast<double>(config.pairs_per_cycle_per_pe());
  result.utilization =
      slot_pairs > 0.0 ? static_cast<double>(result.pairs) / slot_pairs : 0.0;
  return result;
}

}  // namespace gaurast::core
