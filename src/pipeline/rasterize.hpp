// Step 3 of the 3DGS pipeline (paper Fig. 3(d)-(e)): Gaussian rasterization —
// per-pixel alpha evaluation and front-to-back color accumulation.
//
// This is the reference software implementation of the operator GauRast
// accelerates; the hardware model executes eval_splat_alpha/accumulate with
// identical arithmetic so images match exactly (paper Sec. V-A validation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gsmath/fastmath.hpp"
#include "gsmath/image.hpp"
#include "pipeline/sort.hpp"

namespace gaurast::pipeline {

/// Which Step-3 software kernel executes the tile workload.
///
/// kReference is the scalar oracle: per-pixel front-to-back blending exactly
/// as the paper's CUDA kernel (and the GauRast PE datapath) computes it.
/// kFast is the optimized host kernel: it stages each tile's splats once
/// into SoA scratch arrays, walks pixels in fixed-width row batches, skips
/// a whole batch for a splat whose row or column band (gsmath::power_band)
/// puts every pair below the blend threshold, and skips exp() for single
/// pairs provably below it — while remaining bit-identical to kReference
/// (enforced by the raster_fast_test golden matrix).
enum class RasterKernel {
  kReference,
  kFast,
};

/// "reference" | "fast" — the spelling used by CLI flags and JSON reports.
const char* to_string(RasterKernel kernel);

/// Parses "reference" | "fast"; throws gaurast::Error (naming the valid
/// spellings) otherwise.
RasterKernel raster_kernel_from_string(const std::string& name);

/// Blending constants of the reference implementation.
struct BlendParams {
  float alpha_min = 1.0f / 255.0f;  ///< discard contributions below this
  float alpha_max = 0.99f;          ///< clamp per-splat alpha
  float transmittance_min = 1e-4f;  ///< early termination threshold on T
  Vec3f background{0.0f, 0.0f, 0.0f};
};

/// Per-splat-per-pixel alpha evaluation:
///   power = -1/2 d^T Conic d,  alpha = min(alpha_max, opacity * exp(power)).
/// Returns alpha, or 0 when power > 0 (numerical guard, as in the
/// reference kernel). `d` is pixel_center - splat_mean.
float eval_splat_alpha(const Splat2D& splat, Vec2f pixel,
                       const BlendParams& params);

/// Running blend state of one pixel. The walk over its splats stops once
/// transmittance falls below BlendParams::transmittance_min.
struct PixelBlendState {
  Vec3f accumulated{0, 0, 0};
  float transmittance = 1.0f;
};

/// Applies one splat contribution front-to-back:
///   C += T * alpha * color;  T *= (1 - alpha).
/// Skips alphas below params.alpha_min. Returns true if applied.
bool accumulate(PixelBlendState& state, float alpha, Vec3f color,
                const BlendParams& params);

/// Per-frame Step 3 statistics (these are the quantities SceneProfile
/// captures at full scale).
struct RasterStats {
  std::uint64_t pairs_evaluated = 0;  ///< splat-pixel alpha evaluations
  std::uint64_t pairs_blended = 0;    ///< passed the alpha_min threshold
  std::uint64_t pixels_terminated = 0;

  double mean_pairs_per_pixel(std::uint64_t pixels) const {
    return pixels == 0 ? 0.0
                       : static_cast<double>(pairs_evaluated) /
                             static_cast<double>(pixels);
  }
};

/// Per-thread scratch arena for the fast kernel's SoA tile staging. The
/// vectors only ever grow, so a long-lived thread (a serve worker, a
/// fork-join pool thread, the CLI main thread) stops allocating after its
/// first frame — staging becomes a
/// copy into already-warm buffers instead of a per-tile malloc.
struct RasterScratch {
  std::vector<float> mean_x, mean_y;
  std::vector<float> conic_a, conic_b, conic_c;
  std::vector<float> opacity, cutoff, band_x, band_y;
  std::vector<float> color_r, color_g, color_b;

  /// Grows every array to hold at least `n` splats; never shrinks.
  void ensure(std::size_t n);

  /// Staged capacity in splats (what ensure() has grown to so far).
  std::size_t capacity() const { return mean_x.size(); }
};

/// The calling thread's scratch arena, reused across frames for the
/// lifetime of the thread (this is what lets the runtime serve loop render
/// job after job without per-job staging allocations).
RasterScratch& thread_raster_scratch();

namespace detail {
/// Reference (scalar oracle) kernel for one tile. `stats` may be null, in
/// which case no counter is touched (the stats-off instantiation carries
/// zero bookkeeping in the inner loop).
void raster_tile_reference(const std::vector<Splat2D>& splats,
                           const TileWorkload& work, const BlendParams& params,
                           std::uint32_t tile_id, Image& image,
                           RasterStats* stats);

/// The fast kernel's per-splat constants, computed once per frame by
/// rasterize_into() rather than per duplicated tile instance.
struct FastSplatBounds {
  float cutoff = 0.0f;  ///< gsmath::alpha_cutoff_power(alpha_min, opacity)
  PowerBand band;       ///< gsmath::power_band(conic, mean, cutoff, frame)
};

/// Fast kernel for one tile; bit-identical image and identical stats to
/// raster_tile_reference. Uses the calling thread's RasterScratch.
/// `bounds` holds one entry per splat.
void raster_tile_fast(const std::vector<Splat2D>& splats,
                      const TileWorkload& work, const BlendParams& params,
                      const FastSplatBounds* bounds, std::uint32_t tile_id,
                      Image& image, RasterStats* stats);
}  // namespace detail

/// Rasterizes the sorted tile workload over all pixels. Mirrors the
/// reference CUDA kernel: every pixel of a tile walks the tile's
/// depth-sorted splat list, evaluating alpha and accumulating until the
/// transmittance threshold. Tiles are independent, so `num_threads` > 1
/// workers claim them one at a time (for_each_tile) with bit-identical
/// results (per-worker statistics are integer sums, merged after the
/// walk). `kernel` selects the Step-3 software kernel; both produce
/// bit-identical images and stats.
/// `precompute` (nullable) supplies the per-scene raster cutoffs the fast
/// kernel otherwise recomputes each frame; it is consulted only when its
/// cutoff_alpha_min matches params.alpha_min, so passing it is always safe.
Image rasterize(const std::vector<Splat2D>& splats, const TileWorkload& work,
                const BlendParams& params, RasterStats* stats = nullptr,
                int num_threads = 1,
                RasterKernel kernel = RasterKernel::kReference,
                const ScenePrecompute* precompute = nullptr);

/// Allocation-free variant: rasterizes into `image`, which must already
/// have the workload's grid dimensions. Every pixel is overwritten
/// (background fill, then blending), so the result is bit-identical to
/// rasterize() whatever `image` held before. This is what lets a frame
/// reuse the buffer its preprocess stage allocated instead of paying a
/// second image allocation in Step 3.
void rasterize_into(Image& image, const std::vector<Splat2D>& splats,
                    const TileWorkload& work, const BlendParams& params,
                    RasterStats* stats = nullptr, int num_threads = 1,
                    RasterKernel kernel = RasterKernel::kReference,
                    const ScenePrecompute* precompute = nullptr);

}  // namespace gaurast::pipeline
