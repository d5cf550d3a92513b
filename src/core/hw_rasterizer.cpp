#include "core/hw_rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "core/pe.hpp"

namespace gaurast::core {

namespace {

/// Bytes of pixel-state read-modify-write traffic charged per pair (split
/// evenly between read and write for the counters).
constexpr std::uint64_t kPairStateReadBytes = 10;
constexpr std::uint64_t kPairStateWriteBytes = 10;

/// What one walk over a Gaussian tile workload counted.
struct GaussianTally {
  GaussianOutcomeCounts outcomes{};  ///< pairs per datapath branch
  std::uint64_t primitives = 0;      ///< tile-list entries fetched
};

/// Runs every pixel of every non-empty tile through the PE datapath at
/// precision P, writing `image` and appending one TileLoad per tile. Counts
/// in plain integers; the caller charges the CounterSet once per frame.
template <Precision P>
GaussianTally walk_gaussian_tiles(const std::vector<pipeline::Splat2D>& splats,
                                  const pipeline::TileWorkload& work,
                                  const pipeline::BlendParams& params,
                                  const RasterizerConfig& config, Image& image,
                                  std::vector<TileLoad>& tile_loads) {
  const pipeline::TileGrid& grid = work.grid;
  const std::uint64_t prim_bytes = gaussian_primitive_bytes(P);
  const std::uint64_t tile_state_bytes =
      static_cast<std::uint64_t>(config.pixels_per_tile()) *
      pixel_state_bytes(P);
  GaussianTally tally;

  const int tiles_x = grid.tiles_x();
  const int tiles_y = grid.tiles_y();

  for (int ty = 0; ty < tiles_y; ++ty) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const std::uint32_t tile_id =
          static_cast<std::uint32_t>(ty) * static_cast<std::uint32_t>(tiles_x) +
          static_cast<std::uint32_t>(tx);
      const pipeline::TileRange range = work.ranges[tile_id];
      if (range.size() == 0) continue;

      TileLoad load;
      load.fill_bytes = range.size() * prim_bytes + tile_state_bytes;
      tally.primitives += range.size();

      const pipeline::TileBounds tile = grid.tile_bounds(tile_id);
      for (int py = tile.y0; py < tile.y1; ++py) {
        for (int px = tile.x0; px < tile.x1; ++px) {
          pipeline::PixelBlendState state;
          const Vec2f pixel{static_cast<float>(px) + 0.5f,
                            static_cast<float>(py) + 0.5f};
          std::uint32_t i = range.begin;
          for (; i < range.end; ++i) {
            if (state.transmittance < params.transmittance_min) break;
            const pipeline::Splat2D& sp =
                splats[work.instances[i].splat_index];
            const GaussianOutcome outcome =
                gaussian_datapath<P>(sp, pixel, state, params).outcome;
            ++tally.outcomes[static_cast<std::size_t>(outcome)];
          }
          load.pairs += i - range.begin;
          image.at(px, py) =
              state.accumulated + params.background * state.transmittance;
        }
      }
      tile_loads.push_back(load);
    }
  }
  return tally;
}

}  // namespace

HardwareRasterizer::HardwareRasterizer(RasterizerConfig config)
    : config_(config) {
  config_.validate();
}

HwRasterResult HardwareRasterizer::rasterize_gaussians(
    const std::vector<pipeline::Splat2D>& splats,
    const pipeline::TileWorkload& work,
    const pipeline::BlendParams& params) const {
  GAURAST_CHECK_MSG(work.grid.tile_size == config_.tile_size,
                    "workload tiling " << work.grid.tile_size
                                       << " != rasterizer tiling "
                                       << config_.tile_size);
  HwRasterResult result;
  result.image = Image(work.grid.width, work.grid.height, params.background);

  std::vector<TileLoad> tile_loads;
  tile_loads.reserve(work.ranges.size());
  const GaussianTally tally =
      config_.precision == Precision::kFp16
          ? walk_gaussian_tiles<Precision::kFp16>(splats, work, params, config_,
                                                  result.image, tile_loads)
          : walk_gaussian_tiles<Precision::kFp32>(splats, work, params, config_,
                                                  result.image, tile_loads);

  const std::uint64_t pairs = std::accumulate(
      tally.outcomes.begin(), tally.outcomes.end(), std::uint64_t{0});
  result.pairs_evaluated = pairs;
  result.pairs_blended =
      tally.outcomes[static_cast<std::size_t>(GaussianOutcome::kBlended)];

  // The frame's totals, charged once. A counter appears only when non-zero,
  // except pe.pairs.
  charge_gaussian_ops(tally.outcomes, result.counters);
  const auto charge = [&](const char* name, std::uint64_t count) {
    if (count != 0) result.counters.increment(name, count);
  };
  charge(sim::ops::kBufRead,
         tally.primitives * gaussian_primitive_bytes(config_.precision) +
             pairs * kPairStateReadBytes);
  charge(sim::ops::kBufWrite, pairs * kPairStateWriteBytes);
  charge(sim::ops::kPrimitives, tally.primitives);
  result.counters.increment(sim::ops::kPairsProcessed, pairs);

  result.timing = run_design_timeline(tile_loads, config_);
  result.tile_loads = std::move(tile_loads);
  return result;
}

HwRasterResult HardwareRasterizer::rasterize_triangles(
    const std::vector<mesh::ScreenTriangle>& prims, int width, int height,
    Vec3f background) const {
  GAURAST_CHECK(width > 0 && height > 0);
  HwRasterResult result;
  result.image = Image(width, height, background);

  const int ts = config_.tile_size;
  const int tiles_x = (width + ts - 1) / ts;
  const int tiles_y = (height + ts - 1) / ts;
  const std::size_t prim_bytes = triangle_primitive_bytes(config_.precision);
  const std::size_t px_bytes = pixel_state_bytes(config_.precision);

  // Bin primitives to tiles by bounding box (primitive order preserved, so
  // z-buffer tie-breaking matches the reference renderer).
  std::vector<std::vector<std::uint32_t>> bins(
      static_cast<std::size_t>(tiles_x) * static_cast<std::size_t>(tiles_y));
  for (std::uint32_t p = 0; p < prims.size(); ++p) {
    const mesh::ScreenTriangle& tri = prims[p];
    const float min_x = std::min({tri.p0.x, tri.p1.x, tri.p2.x});
    const float max_x = std::max({tri.p0.x, tri.p1.x, tri.p2.x});
    const float min_y = std::min({tri.p0.y, tri.p1.y, tri.p2.y});
    const float max_y = std::max({tri.p0.y, tri.p1.y, tri.p2.y});
    const int tx0 = std::max(0, static_cast<int>(min_x) / ts);
    const int tx1 = std::min(tiles_x - 1, static_cast<int>(max_x) / ts);
    const int ty0 = std::max(0, static_cast<int>(min_y) / ts);
    const int ty1 = std::min(tiles_y - 1, static_cast<int>(max_y) / ts);
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        bins[static_cast<std::size_t>(ty) * static_cast<std::size_t>(tiles_x) +
             static_cast<std::size_t>(tx)]
            .push_back(p);
      }
    }
    pe_triangle_setup(result.counters);
  }

  std::vector<TileLoad> tile_loads;
  std::vector<float> depth(static_cast<std::size_t>(width) *
                               static_cast<std::size_t>(height),
                           std::numeric_limits<float>::infinity());

  for (int ty = 0; ty < tiles_y; ++ty) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const auto& bin =
          bins[static_cast<std::size_t>(ty) * static_cast<std::size_t>(tiles_x) +
               static_cast<std::size_t>(tx)];
      if (bin.empty()) continue;
      TileLoad load;
      load.fill_bytes = bin.size() * prim_bytes +
                        static_cast<std::uint64_t>(config_.pixels_per_tile()) *
                            px_bytes;
      result.counters.increment(sim::ops::kBufRead, bin.size() * prim_bytes);

      const int px0 = tx * ts;
      const int py0 = ty * ts;
      const int px1 = std::min(px0 + ts, width);
      const int py1 = std::min(py0 + ts, height);
      for (int py = py0; py < py1; ++py) {
        for (int px = px0; px < px1; ++px) {
          const std::size_t idx =
              static_cast<std::size_t>(py) * static_cast<std::size_t>(width) +
              static_cast<std::size_t>(px);
          const Vec2f pixel{static_cast<float>(px) + 0.5f,
                            static_cast<float>(py) + 0.5f};
          for (std::uint32_t p : bin) {
            pe_triangle_pair(prims[p], pixel, depth[idx],
                             result.image.at(px, py), config_.precision,
                             result.counters);
            ++load.pairs;
            ++result.pairs_evaluated;
            result.counters.increment(sim::ops::kBufRead, kPairStateReadBytes);
            result.counters.increment(sim::ops::kBufWrite,
                                      kPairStateWriteBytes);
          }
        }
      }
      result.counters.increment(sim::ops::kPrimitives, bin.size());
      tile_loads.push_back(std::move(load));
    }
  }
  result.pairs_blended = result.pairs_evaluated;
  result.counters.increment(sim::ops::kPairsProcessed, result.pairs_evaluated);
  result.timing = run_design_timeline(tile_loads, config_);
  result.tile_loads = std::move(tile_loads);
  return result;
}

}  // namespace gaurast::core
