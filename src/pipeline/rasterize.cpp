#include "pipeline/rasterize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "gsmath/conic.hpp"
#include "gsmath/fastmath.hpp"
#include "pipeline/for_each_tile.hpp"

namespace gaurast::pipeline {

const char* to_string(RasterKernel kernel) {
  return kernel == RasterKernel::kFast ? "fast" : "reference";
}

RasterKernel raster_kernel_from_string(const std::string& name) {
  if (name == "reference") return RasterKernel::kReference;
  if (name == "fast") return RasterKernel::kFast;
  throw Error("unknown raster kernel '" + name +
              "'; expected 'reference' or 'fast'");
}

float eval_splat_alpha(const Splat2D& splat, Vec2f pixel,
                       const BlendParams& params) {
  const Vec2f d = pixel - splat.mean;
  const float power = gaussian_power(splat.conic, d);
  if (power > 0.0f) return 0.0f;
  const float alpha = splat.opacity * std::exp(power);
  return std::min(params.alpha_max, alpha);
}

bool accumulate(PixelBlendState& state, float alpha, Vec3f color,
                const BlendParams& params) {
  if (alpha < params.alpha_min) return false;
  state.accumulated += color * (alpha * state.transmittance);
  state.transmittance *= (1.0f - alpha);
  return true;
}

namespace {

/// Rasterizes one tile into `image`, accumulating stats into `*stats` when
/// kCollectStats. Tiles write disjoint pixels, so concurrent workers are
/// safe. Templating hoists the stats bookkeeping out of the stats-off
/// instantiation entirely — when the caller passed no RasterStats, the
/// inner loop carries zero accounting overhead.
template <bool kCollectStats>
void rasterize_tile(const std::vector<Splat2D>& splats,
                    const TileWorkload& work, const BlendParams& params,
                    std::uint32_t tile_id, Image& image, RasterStats* stats) {
  const TileRange range = work.ranges[tile_id];
  if (range.size() == 0) return;
  const TileBounds tile = work.grid.tile_bounds(tile_id);

  // Reference-kernel iteration order: each pixel walks the depth-sorted
  // splat list until its transmittance crosses the threshold.
  for (int py = tile.y0; py < tile.y1; ++py) {
    for (int px = tile.x0; px < tile.x1; ++px) {
      PixelBlendState st;
      const Vec2f pixel{static_cast<float>(px) + 0.5f,
                        static_cast<float>(py) + 0.5f};
      for (std::uint32_t i = range.begin; i < range.end; ++i) {
        if (st.transmittance < params.transmittance_min) {
          if constexpr (kCollectStats) ++stats->pixels_terminated;
          break;
        }
        const Splat2D& sp = splats[work.instances[i].splat_index];
        if constexpr (kCollectStats) {
          ++stats->pairs_evaluated;
          ++stats->pairs_per_tile[tile_id];
        }
        const float alpha = eval_splat_alpha(sp, pixel, params);
        if (accumulate(st, alpha, sp.color, params)) {
          if constexpr (kCollectStats) ++stats->pairs_blended;
        }
      }
      image.at(px, py) =
          st.accumulated + params.background * st.transmittance;
    }
  }
}

}  // namespace

namespace detail {

void raster_tile_reference(const std::vector<Splat2D>& splats,
                           const TileWorkload& work, const BlendParams& params,
                           std::uint32_t tile_id, Image& image,
                           RasterStats* stats) {
  if (stats) {
    rasterize_tile<true>(splats, work, params, tile_id, image, stats);
  } else {
    rasterize_tile<false>(splats, work, params, tile_id, image, nullptr);
  }
}

}  // namespace detail

Image rasterize(const std::vector<Splat2D>& splats, const TileWorkload& work,
                const BlendParams& params, RasterStats* stats, int num_threads,
                RasterKernel kernel, const ScenePrecompute* precompute) {
  Image image(work.grid.width, work.grid.height);
  rasterize_into(image, splats, work, params, stats, num_threads, kernel,
                 precompute);
  return image;
}

void rasterize_into(Image& image, const std::vector<Splat2D>& splats,
                    const TileWorkload& work, const BlendParams& params,
                    RasterStats* stats, int num_threads, RasterKernel kernel,
                    const ScenePrecompute* precompute) {
  GAURAST_CHECK(num_threads >= 1);
  const TileGrid& grid = work.grid;
  GAURAST_CHECK(image.width() == grid.width && image.height() == grid.height);
  for (Vec3f& pixel : image.pixels()) pixel = params.background;
  const std::uint32_t tiles = grid.tile_count();

  // The fast kernel's skip bounds depend only on frame-constant inputs
  // (alpha_min, opacity, conic, mean), so compute them once per splat here
  // rather than per duplicated tile instance during staging. A caller's
  // matching per-scene precompute supplies the cutoffs it already holds
  // (identical floats: same alpha_cutoff_power of the same inputs); the
  // bands depend on the view, so they are always computed per frame.
  std::vector<detail::FastSplatBounds> bounds;
  if (kernel == RasterKernel::kFast) {
    const bool reuse = precompute != nullptr &&
                       precompute->cutoff_alpha_min == params.alpha_min &&
                       !precompute->raster_cutoff.empty();
    bounds.resize(splats.size());
    for (std::size_t i = 0; i < splats.size(); ++i) {
      const Splat2D& sp = splats[i];
      detail::FastSplatBounds& b = bounds[i];
      b.cutoff = reuse ? precompute->raster_cutoff[sp.source_id]
                       : alpha_cutoff_power(params.alpha_min, sp.opacity);
      b.band = power_band(sp.conic, sp.mean, b.cutoff, grid.width,
                          grid.height);
    }
  }

  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(num_threads), std::max<std::uint32_t>(tiles, 1));
  std::vector<RasterStats> per_worker(stats ? workers : 0);
  for (RasterStats& st : per_worker) st.pairs_per_tile.assign(tiles, 0);
  for_each_tile(tiles, workers, [&](std::size_t w, std::uint32_t tile) {
    RasterStats* local = stats ? &per_worker[w] : nullptr;
    if (kernel == RasterKernel::kFast) {
      detail::raster_tile_fast(splats, work, params, bounds.data(), tile,
                               image, local);
    } else {
      detail::raster_tile_reference(splats, work, params, tile, image, local);
    }
  });

  if (!stats) return;
  RasterStats merged = std::move(per_worker[0]);
  for (std::size_t w = 1; w < workers; ++w) {
    const RasterStats& st = per_worker[w];
    merged.pairs_evaluated += st.pairs_evaluated;
    merged.pairs_blended += st.pairs_blended;
    merged.pixels_terminated += st.pixels_terminated;
    for (std::uint32_t t = 0; t < tiles; ++t) {
      merged.pairs_per_tile[t] += st.pairs_per_tile[t];
    }
  }
  *stats = std::move(merged);
}

}  // namespace gaurast::pipeline
