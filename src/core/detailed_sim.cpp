#include "core/detailed_sim.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace gaurast::core {

namespace {

enum class BufferState { kFree, kFilling, kLatency, kReady, kDraining };

/// One ping-pong tile buffer.
struct Buffer {
  BufferState state = BufferState::kFree;
  std::size_t tile_index = 0;
  std::uint64_t bytes_remaining = 0;
  Cycle latency_remaining = 0;
  std::uint64_t sequence = 0;  ///< fill order, for in-order consumption
};

/// The whole module as one clocked unit: a fetcher filling buffers through
/// a serialized memory interface, and a PE block draining them in order.
class DetailedModule {
 public:
  DetailedModule(const std::vector<TileLoad>& tiles,
                 const RasterizerConfig& config)
      : tiles_(tiles), config_(config) {}

  /// Advances one cycle: the fetcher, then the PE block.
  void tick() {
    tick_fetch();
    tick_pe_block();
  }

  /// True once every tile has been filled and drained.
  bool idle() const {
    return next_tile_to_fill_ >= tiles_.size() && !pe_active_ &&
           buffers_[0].state == BufferState::kFree &&
           buffers_[1].state == BufferState::kFree;
  }

  std::uint64_t pairs_retired() const { return pairs_retired_; }
  std::uint64_t fill_stalls() const { return fill_stalls_; }

 private:
  void tick_fetch() {
    // Advance latency pipes.
    for (Buffer& b : buffers_) {
      if (b.state == BufferState::kLatency) {
        if (b.latency_remaining > 0) --b.latency_remaining;
        if (b.latency_remaining == 0) b.state = BufferState::kReady;
      }
    }
    // Stream bytes of the in-flight transfer (one transfer at a time).
    for (Buffer& b : buffers_) {
      if (b.state != BufferState::kFilling) continue;
      const auto step = static_cast<std::uint64_t>(
          std::ceil(config_.mem_bytes_per_cycle));
      b.bytes_remaining = b.bytes_remaining > step ? b.bytes_remaining - step : 0;
      if (b.bytes_remaining == 0) {
        b.state = BufferState::kLatency;
        b.latency_remaining = config_.mem_latency;
      }
      return;  // memory interface is busy this cycle
    }
    // Start the next fill into a free buffer.
    if (next_tile_to_fill_ >= tiles_.size()) return;
    for (Buffer& b : buffers_) {
      if (b.state == BufferState::kFree) {
        b.state = BufferState::kFilling;
        b.tile_index = next_tile_to_fill_;
        b.bytes_remaining = std::max<std::uint64_t>(
            tiles_[next_tile_to_fill_].fill_bytes, 1);
        b.sequence = fill_sequence_++;
        ++next_tile_to_fill_;
        return;
      }
    }
  }

  void tick_pe_block() {
    if (!pe_active_) {
      // Consume the oldest Ready buffer (in fill order).
      Buffer* pick = nullptr;
      for (Buffer& b : buffers_) {
        if (b.state == BufferState::kReady &&
            (pick == nullptr || b.sequence < pick->sequence)) {
          pick = &b;
        }
      }
      if (pick == nullptr) {
        if (next_tile_to_fill_ < tiles_.size() ||
            buffers_[0].state != BufferState::kFree ||
            buffers_[1].state != BufferState::kFree) {
          ++fill_stalls_;
        }
        return;
      }
      pick->state = BufferState::kDraining;
      active_buffer_ = pick;
      pe_active_ = true;
      drain_remaining_ = static_cast<Cycle>(config_.pipeline_depth);
      pairs_remaining_ = tiles_[pick->tile_index].pairs;
      return;  // issue starts next cycle, matching the analytic +depth term
    }
    // The dispatch controller feeds all PEs from the shared pair queue.
    const auto rate = static_cast<std::uint64_t>(config_.pes_per_module) *
                      static_cast<std::uint64_t>(config_.pairs_per_cycle_per_pe());
    if (pairs_remaining_ > 0) {
      const std::uint64_t done = std::min(pairs_remaining_, rate);
      pairs_remaining_ -= done;
      pairs_retired_ += done;
    } else {
      // Pipeline drain after the last issue.
      if (drain_remaining_ > 1) {
        --drain_remaining_;
        return;
      }
      active_buffer_->state = BufferState::kFree;
      active_buffer_ = nullptr;
      pe_active_ = false;
    }
  }

  const std::vector<TileLoad>& tiles_;
  RasterizerConfig config_;
  Buffer buffers_[2];
  std::size_t next_tile_to_fill_ = 0;
  std::uint64_t fill_sequence_ = 0;
  std::uint64_t pairs_remaining_ = 0;
  bool pe_active_ = false;
  Buffer* active_buffer_ = nullptr;
  Cycle drain_remaining_ = 0;
  std::uint64_t pairs_retired_ = 0;
  std::uint64_t fill_stalls_ = 0;
};

}  // namespace

DetailedSimResult run_detailed_module_sim(const std::vector<TileLoad>& tiles,
                                          const RasterizerConfig& config,
                                          Cycle max_cycles) {
  config.validate();
  DetailedModule module(tiles, config);
  Cycle cycles = 0;
  while (!module.idle()) {
    GAURAST_CHECK_MSG(cycles < max_cycles, "simulation did not converge within "
                                               << max_cycles << " cycles");
    module.tick();
    ++cycles;
  }

  DetailedSimResult result;
  result.cycles = cycles;
  result.pairs = module.pairs_retired();
  result.fill_stall_cycles = module.fill_stalls();
  const double slots = static_cast<double>(cycles) *
                       static_cast<double>(config.pes_per_module) *
                       static_cast<double>(config.pairs_per_cycle_per_pe());
  result.utilization =
      slots > 0.0 ? static_cast<double>(result.pairs) / slots : 0.0;
  return result;
}

}  // namespace gaurast::core
