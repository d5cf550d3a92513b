#include "pipeline/sort.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "pipeline/for_each_tile.hpp"

namespace gaurast::pipeline {

std::uint32_t depth_key_bits(float depth) {
  // Validated once per workload by validate_splat_depths(); only a debug
  // assert here so the per-instance hot loop carries no branch in Release.
  GAURAST_DCHECK(depth >= 0.0f);
  std::uint32_t bits;
  std::memcpy(&bits, &depth, sizeof(bits));
  // Positive IEEE-754 floats compare like their bit patterns.
  return bits;
}

void validate_splat_depths(const std::vector<Splat2D>& splats) {
  for (std::size_t i = 0; i < splats.size(); ++i) {
    // !(depth >= 0) also catches NaN, whose bit pattern sorts arbitrarily.
    if (!(splats[i].depth >= 0.0f)) {
      throw Error("sort_splats: splat " + std::to_string(i) +
                  " has invalid depth " + std::to_string(splats[i].depth) +
                  " (depth keys require finite non-negative depths)");
    }
  }
}

bool tight_splat_extent(const Splat2D& splat, float alpha_min, float& rx,
                        float& ry) {
  GAURAST_CHECK(alpha_min > 0.0f);
  if (splat.opacity <= alpha_min) return false;
  // alpha(d) = opacity * exp(-1/2 d^T C d) >= alpha_min defines the ellipse
  // 1/2 d^T C d <= ln(opacity / alpha_min) =: q. Its axis-aligned extent is
  // sqrt(2 q * Cov_xx), sqrt(2 q * Cov_yy) with Cov = C^-1.
  const float q = std::log(splat.opacity / alpha_min);
  const float det = splat.conic.a * splat.conic.c - splat.conic.b * splat.conic.b;
  if (!(det > 0.0f)) return false;
  const float cov_xx = splat.conic.c / det;
  const float cov_yy = splat.conic.a / det;
  rx = std::sqrt(std::max(2.0f * q * cov_xx, 0.0f));
  ry = std::sqrt(std::max(2.0f * q * cov_yy, 0.0f));
  return rx > 0.0f && ry > 0.0f;
}

namespace {

/// Clamped tile span [tx0, tx1] x [ty0, ty1] of one splat's footprint under
/// `mode`; false when the splat lands on no tile (culled or off-screen).
bool splat_tile_span(const Splat2D& sp, const TileGrid& grid, CullingMode mode,
                     float alpha_min, int& tx0, int& tx1, int& ty0, int& ty1) {
  float rx = sp.radius;
  float ry = sp.radius;
  if (mode == CullingMode::kTightEllipse) {
    if (!tight_splat_extent(sp, alpha_min, rx, ry)) return false;
    // Never exceed the reference bounding square (the tight extent is a
    // subset of the 3-sigma box by construction, but guard numerics).
    rx = std::min(rx, sp.radius);
    ry = std::min(ry, sp.radius);
  }
  // Tile span of the splat's bounding rectangle, clamped to the screen.
  const auto ts = static_cast<float>(grid.tile_size);
  tx0 = static_cast<int>(std::floor((sp.mean.x - rx) / ts));
  tx1 = static_cast<int>(std::floor((sp.mean.x + rx) / ts));
  ty0 = static_cast<int>(std::floor((sp.mean.y - ry) / ts));
  ty1 = static_cast<int>(std::floor((sp.mean.y + ry) / ts));
  tx0 = std::max(tx0, 0);
  ty0 = std::max(ty0, 0);
  tx1 = std::min(tx1, grid.tiles_x() - 1);
  ty1 = std::min(ty1, grid.tiles_y() - 1);
  return tx0 <= tx1 && ty0 <= ty1;
}

/// Stable ascending sort of one tile's bucket by the low 32 depth-key bits
/// (every key in a bucket shares its tile high bits). Insertion sort for
/// short buckets; 4-pass LSD counting sort through `scratch` otherwise.
/// Both are stable, so ties keep splat order.
void sort_tile_bucket_by_depth(TileInstance* first, std::size_t n,
                               std::vector<TileInstance>& scratch) {
  if (n < 2) return;
  if (n < 32) {
    for (std::size_t i = 1; i < n; ++i) {
      const TileInstance x = first[i];
      std::size_t j = i;
      while (j > 0 && first[j - 1].key > x.key) {
        first[j] = first[j - 1];
        --j;
      }
      first[j] = x;
    }
    return;
  }
  if (scratch.size() < n) scratch.resize(n);
  TileInstance* src = first;
  TileInstance* dst = scratch.data();
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = pass * 8;
    std::array<std::uint32_t, 256> histogram{};
    for (std::size_t i = 0; i < n; ++i) {
      ++histogram[(src[i].key >> shift) & 0xFFu];
    }
    bool trivial = false;
    for (std::size_t d = 0; d < 256; ++d) {
      if (histogram[d] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::array<std::uint32_t, 256> offsets{};
    std::uint32_t running = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      offsets[d] = running;
      running += histogram[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> shift) & 0xFFu]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

}  // namespace

TileWorkload sort_splats(const std::vector<Splat2D>& splats,
                         const TileGrid& grid, SortStats* stats,
                         CullingMode mode, float alpha_min, int num_threads) {
  GAURAST_CHECK(num_threads >= 1);
  GAURAST_CHECK(grid.width > 0 && grid.height > 0 && grid.tile_size > 0);
  validate_splat_depths(splats);
  TileWorkload work;
  work.grid = grid;
  const std::uint32_t tiles = grid.tile_count();
  const auto n_splats = splats.size();
  const auto workers = std::min<std::size_t>(
      static_cast<std::size_t>(num_threads), std::max<std::size_t>(n_splats, 1));

  // Pass 1 — duplicate: worker w covers the contiguous splat chunk
  // [n*w/W, n*(w+1)/W), appending instances in splat order and counting
  // per tile. Chunks are contiguous, so concatenating them in worker order
  // is splat order.
  std::vector<std::vector<TileInstance>> local(workers);
  std::vector<std::vector<std::uint32_t>> local_counts(
      workers, std::vector<std::uint32_t>(tiles, 0));
  common::parallel_for_workers(workers, [&](std::size_t w) {
    const std::size_t begin = n_splats * w / workers;
    const std::size_t end = n_splats * (w + 1) / workers;
    std::vector<TileInstance>& out = local[w];
    std::vector<std::uint32_t>& counts = local_counts[w];
    out.reserve((end - begin) * 2);
    const int tiles_x = grid.tiles_x();
    for (std::size_t s = begin; s < end; ++s) {
      int tx0, tx1, ty0, ty1;
      if (!splat_tile_span(splats[s], grid, mode, alpha_min, tx0, tx1,
                           ty0, ty1)) {
        continue;
      }
      const std::uint32_t dkey = depth_key_bits(splats[s].depth);
      for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
          const std::uint64_t tile =
              static_cast<std::uint64_t>(ty) *
                  static_cast<std::uint64_t>(tiles_x) +
              static_cast<std::uint64_t>(tx);
          out.push_back(TileInstance{(tile << 32) | dkey,
                                     static_cast<std::uint32_t>(s)});
          ++counts[static_cast<std::uint32_t>(tile)];
        }
      }
    }
  });

  // Pass 2 — ranges: an exclusive prefix over (tile, worker) gives every
  // worker an exact write cursor per tile; the per-tile totals are the
  // final ranges. Empty tiles keep the default {0, 0} range.
  std::vector<std::uint32_t> tile_begin(tiles + 1, 0);
  std::vector<std::vector<std::uint32_t>> cursor(
      workers, std::vector<std::uint32_t>(tiles, 0));
  std::uint32_t running = 0;
  for (std::uint32_t t = 0; t < tiles; ++t) {
    tile_begin[t] = running;
    for (std::size_t w = 0; w < workers; ++w) {
      cursor[w][t] = running;
      running += local_counts[w][t];
    }
  }
  tile_begin[tiles] = running;
  work.instances.resize(running);
  work.ranges.assign(tiles, TileRange{});
  for (std::uint32_t t = 0; t < tiles; ++t) {
    if (tile_begin[t + 1] > tile_begin[t]) {
      work.ranges[t] = TileRange{tile_begin[t], tile_begin[t + 1]};
    }
  }

  // Pass 3 — scatter into tile buckets (stable: worker order is splat
  // order), then pass 4 — per-tile depth sort, tiles claimed dynamically.
  common::parallel_for_workers(workers, [&](std::size_t w) {
    std::vector<std::uint32_t>& cur = cursor[w];
    for (const TileInstance& ti : local[w]) {
      work.instances[cur[ti.tile()]++] = ti;
    }
  });
  std::vector<std::vector<TileInstance>> scratch(workers);
  for_each_tile(tiles, workers, [&](std::size_t w, std::uint32_t t) {
    sort_tile_bucket_by_depth(work.instances.data() + tile_begin[t],
                              tile_begin[t + 1] - tile_begin[t], scratch[w]);
  });

  if (stats) {
    stats->splats_in = n_splats;
    stats->instances = work.instances.size();
    stats->instances_per_splat =
        splats.empty() ? 0.0
                       : static_cast<double>(work.instances.size()) /
                             static_cast<double>(n_splats);
  }
  return work;
}

}  // namespace gaurast::pipeline
