// Roofline + divergence cost model of the CUDA software 3DGS pipeline.
//
// This substitutes for the paper's Nsight Systems measurements on the Jetson
// Orin NX (Sec. II-B, V-A). Each stage is modeled with the mechanism that
// dominates it on a real device:
//
//   Step 1 (preprocess): memory-bound streaming — every Gaussian's 59 float
//     attributes are read and ~16 floats of splat state written; compute
//     (~600 FMA for projection + degree-3 SH) is the roofline alternative.
//   Step 2 (sort): bandwidth-bound device radix sort — each of the 4
//     radix passes reads and writes the 12-byte (key, payload) records.
//   Step 3 (raster): compute/divergence-bound — the per-scene calibrated
//     FMA-equivalents per evaluated splat-pixel pair (SceneProfile) divided
//     by the GPU's sustained FMA rate.
//
// The same model also prices triangle rendering and a vanilla-NeRF volume
// renderer for the Table I methodology comparison.
#pragma once

#include "gpu/config.hpp"
#include "scene/profile.hpp"

namespace gaurast::gpu {

/// Per-frame stage times for the CUDA-only pipeline.
struct StageTimes {
  double preprocess_ms = 0.0;
  double sort_ms = 0.0;
  double raster_ms = 0.0;

  double stage12_ms() const { return preprocess_ms + sort_ms; }
  double total_ms() const { return preprocess_ms + sort_ms + raster_ms; }
  double fps() const { return total_ms() > 0 ? 1000.0 / total_ms() : 0.0; }
  double raster_share() const {
    return total_ms() > 0 ? raster_ms / total_ms() : 0.0;
  }
};

class CudaCostModel {
 public:
  explicit CudaCostModel(GpuConfig config);

  const GpuConfig& config() const { return config_; }

  /// Step 1: roofline over attribute streaming vs projection/SH compute.
  double preprocess_ms(const scene::SceneProfile& profile) const;

  /// Step 2: radix-sort bandwidth over the duplicated tile instances.
  double sort_ms(const scene::SceneProfile& profile) const;

  /// Step 3: calibrated pair cost over the sustained FMA rate.
  double raster_ms(const scene::SceneProfile& profile) const;

  StageTimes frame_times(const scene::SceneProfile& profile) const;

  /// Energy attributed to Step 3 (mJ): raster time x active GPU power.
  double raster_energy_mj(const scene::SceneProfile& profile) const;

  /// Triangle-mesh rendering cost for a mesh of `triangles` covering
  /// `pixels` with the given overdraw, on the GPU's *fixed-function*
  /// pipeline (Table I "Fast" row).
  double triangle_render_ms(std::uint64_t triangles, std::uint64_t pixels,
                            double overdraw = 2.0) const;

  /// Vanilla-NeRF volume rendering cost at the given resolution (Table I
  /// "Slow" row): samples_per_ray MLP evaluations per pixel on CUDA cores.
  double nerf_render_ms(std::uint64_t pixels, int samples_per_ray = 192,
                        double mlp_fma_per_sample = 524288.0) const;

  // Modeling constants, exposed for tests and documentation.
  static constexpr double kPreprocessFmaPerGaussian = 600.0;
  static constexpr double kSplatWriteBytes = 64.0;  ///< Step-1 output/Gaussian
  static constexpr double kSortBytesPerInstance = 96.0;  ///< 4 passes x 24 B

 private:
  GpuConfig config_;
};

}  // namespace gaurast::gpu
