// The optimized Step-3 host kernel (RasterKernel::kFast).
//
// Same arithmetic as the reference kernel, restructured for host-CPU
// throughput:
//
//  * Per-tile SoA staging: each tile's splats are gathered once through the
//    instances[i].splat_index indirection into flat scratch arrays, so the
//    pixel loops stream contiguous floats instead of re-chasing a 48-byte
//    AoS record per (pixel, splat) pair.
//  * Row batches: pixels are processed kRasterLaneWidth at a time with
//    per-lane transmittance/accumulator arrays. The batch tracks how many
//    lanes are still live (a lane leaves only when a blend drops its
//    transmittance below transmittance_min) and abandons the splat walk
//    once none is.
//  * Band skip: gsmath::power_band gives each splat a row and a column band
//    outside which its float power is provably below the exp() cutoff. A
//    (batch, splat) step whose row, or whose nearest column, lies outside
//    the band does no lane work at all — most steps of a frame, since a
//    splat's cutoff ellipse covers a small part of the tiles it is binned
//    to.
//  * exp() cutoff: alpha_cutoff_power() gives a conservative power bound
//    below which the reference kernel provably discards the pair
//    (alpha < alpha_min), so the transcendental is skipped for pairs that
//    cannot contribute.
//
// Bit-identity with the reference kernel is a hard contract (the fast
// kernel must remain a drop-in for the oracle the hardware model is
// validated against): blended pairs execute the exact reference operation
// sequence — acc += color * (alpha * T); T *= (1 - alpha) — and the skip
// conditions only ever drop pairs the reference discards. Stats totals
// (pairs_evaluated, pairs_blended, pixels_terminated, pairs_per_tile) also
// match exactly: a skipped step still counts its live lanes as evaluated,
// as the reference counts the pairs it rejects. They accumulate in per-tile
// locals, added to the caller's RasterStats once per tile; the stats-off
// instantiation carries no accounting at all.

#include <algorithm>
#include <cmath>

#include "gsmath/fastmath.hpp"
#include "pipeline/rasterize.hpp"

namespace gaurast::pipeline {

void RasterScratch::ensure(std::size_t n) {
  if (mean_x.size() >= n) return;
  for (std::vector<float>* v :
       {&mean_x, &mean_y, &conic_a, &conic_b, &conic_c, &opacity, &cutoff,
        &band_x, &band_y, &color_r, &color_g, &color_b}) {
    v->resize(n);
  }
}

RasterScratch& thread_raster_scratch() {
  thread_local RasterScratch scratch;
  return scratch;
}

namespace {

template <bool kCollectStats>
void raster_tile(const std::vector<Splat2D>& splats, const TileWorkload& work,
                 const BlendParams& params,
                 const detail::FastSplatBounds* bounds, std::uint32_t tile_id,
                 Image& image, RasterStats* stats, RasterScratch& scratch) {
  const TileRange range = work.ranges[tile_id];
  const std::size_t count = range.size();
  if (count == 0) return;

  // Stage the tile's splats once: after this, the pixel loops never touch
  // the instance list or the AoS splat records again.
  scratch.ensure(count);
  float* const mx = scratch.mean_x.data();
  float* const my = scratch.mean_y.data();
  float* const ca = scratch.conic_a.data();
  float* const cb = scratch.conic_b.data();
  float* const cc = scratch.conic_c.data();
  float* const op = scratch.opacity.data();
  float* const cut = scratch.cutoff.data();
  float* const bandx = scratch.band_x.data();
  float* const bandy = scratch.band_y.data();
  float* const cr = scratch.color_r.data();
  float* const cg = scratch.color_g.data();
  float* const cbl = scratch.color_b.data();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t index = work.instances[range.begin + i].splat_index;
    const Splat2D& sp = splats[index];
    const detail::FastSplatBounds& bound = bounds[index];
    mx[i] = sp.mean.x;
    my[i] = sp.mean.y;
    ca[i] = sp.conic.a;
    cb[i] = sp.conic.b;
    cc[i] = sp.conic.c;
    op[i] = sp.opacity;
    cut[i] = bound.cutoff;
    bandx[i] = bound.band.x;
    bandy[i] = bound.band.y;
    cr[i] = sp.color.x;
    cg[i] = sp.color.y;
    cbl[i] = sp.color.z;
  }

  const TileBounds tile = work.grid.tile_bounds(tile_id);
  constexpr int kW = kRasterLaneWidth;
  const float t_min = params.transmittance_min;
  const float alpha_min = params.alpha_min;
  const float alpha_max = params.alpha_max;
  // alpha_min <= 0 changes the discard semantics: a guarded (power > 0)
  // pair has alpha == 0, which then still *blends* (0 < alpha_min is
  // false). The lane loop handles that branch explicitly so the kernel
  // stays exact for every BlendParams, not just the defaults.
  const bool blend_zero_alpha = !(alpha_min > 0.0f);
  // A pixel whose untouched transmittance is already below the threshold
  // stops before its first pair (transmittance_min > 1).
  const bool starts_live = !(1.0f < t_min);

  // This tile's stats, added to *stats once at the end.
  std::uint64_t evaluated = 0;
  std::uint64_t blended = 0;
  std::uint64_t terminated = 0;

  for (int py = tile.y0; py < tile.y1; ++py) {
    const float pyc = static_cast<float>(py) + 0.5f;
    for (int bx = tile.x0; bx < tile.x1; bx += kW) {
      const int lanes = std::min(kW, tile.x1 - bx);
      float acc_r[kW] = {};
      float acc_g[kW] = {};
      float acc_b[kW] = {};
      float tr[kW];
      float pxc[kW];
      for (int j = 0; j < lanes; ++j) {
        tr[j] = 1.0f;
        pxc[j] = static_cast<float>(bx + j) + 0.5f;
      }
      int live = starts_live ? lanes : 0;
      if constexpr (kCollectStats) {
        terminated += static_cast<std::uint64_t>(lanes - live);
      }

      for (std::size_t i = 0; i < count && live > 0; ++i) {
        // Every live lane evaluates this pair in the reference kernel, even
        // when the band skip below rejects it without lane work.
        if constexpr (kCollectStats) {
          evaluated += static_cast<std::uint64_t>(live);
        }
        const float dy = pyc - my[i];
        const float dy2 = dy * dy;
        if (dy2 * bandy[i] > 1.0f) continue;  // row outside the band
        const float smx = mx[i];
        // The batch's smallest |dx|: offsets grow with the lane index.
        const float dx_first = pxc[0] - smx;
        const float dx_last = pxc[lanes - 1] - smx;
        const float dx_near =
            dx_first > 0.0f ? dx_first : (dx_last < 0.0f ? dx_last : 0.0f);
        if (dx_near * dx_near * bandx[i] > 1.0f) continue;  // columns too

        const float sa = ca[i];
        const float sb = cb[i];
        const float sc = cc[i];
        const float sop = op[i];
        const float scut = cut[i];
        const float sr = cr[i];
        const float sg = cg[i];
        const float sbl = cbl[i];
        // A lane saturated by this pair stops here; the reference counts it
        // as terminated when it has another pair to refuse.
        const bool more_pairs = i + 1 < count;

        for (int j = 0; j < lanes; ++j) {
          const float t = tr[j];
          if (t < t_min) continue;  // saturated lane: reference broke out
          const float dx = pxc[j] - smx;
          const float dx2 = dx * dx;
          const float dxdy = dx * dy;
          // Same association as gsmath::gaussian_power — bit-equal power.
          const float power = -0.5f * (sa * dx2 + sc * dy2) - sb * dxdy;
          if (power > 0.0f) {
            // Reference numerical guard: alpha = 0. Only blends (as an
            // exact no-op product, which leaves T unchanged) when
            // alpha_min <= 0.
            if (blend_zero_alpha) {
              const float w = 0.0f * t;
              acc_r[j] += sr * w;
              acc_g[j] += sg * w;
              acc_b[j] += sbl * w;
              tr[j] = t * 1.0f;
              if constexpr (kCollectStats) ++blended;
            }
            continue;
          }
          if (power < scut) continue;  // provably alpha < alpha_min: no exp
          const float alpha = std::min(alpha_max, sop * std::exp(power));
          if (alpha < alpha_min) continue;
          const float w = alpha * t;
          acc_r[j] += sr * w;
          acc_g[j] += sg * w;
          acc_b[j] += sbl * w;
          tr[j] = t * (1.0f - alpha);
          if constexpr (kCollectStats) ++blended;
          if (tr[j] < t_min) {
            --live;
            if constexpr (kCollectStats) terminated += more_pairs ? 1 : 0;
          }
        }
      }

      for (int j = 0; j < lanes; ++j) {
        Vec3f& out = image.at(bx + j, py);
        out.x = acc_r[j] + params.background.x * tr[j];
        out.y = acc_g[j] + params.background.y * tr[j];
        out.z = acc_b[j] + params.background.z * tr[j];
      }
    }
  }

  if constexpr (kCollectStats) {
    stats->pairs_evaluated += evaluated;
    stats->pairs_per_tile[tile_id] += evaluated;
    stats->pairs_blended += blended;
    stats->pixels_terminated += terminated;
  }
}

}  // namespace

namespace detail {

void raster_tile_fast(const std::vector<Splat2D>& splats,
                      const TileWorkload& work, const BlendParams& params,
                      const FastSplatBounds* bounds, std::uint32_t tile_id,
                      Image& image, RasterStats* stats) {
  RasterScratch& scratch = thread_raster_scratch();
  if (stats) {
    raster_tile<true>(splats, work, params, bounds, tile_id, image, stats,
                      scratch);
  } else {
    raster_tile<false>(splats, work, params, bounds, tile_id, image, nullptr,
                       scratch);
  }
}

}  // namespace detail

}  // namespace gaurast::pipeline
