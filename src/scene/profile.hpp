// Per-scene workload profiles standing in for the NeRF-360 dataset.
//
// We do not have the trained NeRF-360 Gaussian checkpoints the paper renders
// (bicycle, stump, garden, room, counter, kitchen, bonsai). What the
// simulators actually consume, however, is the *workload* each scene induces:
// how many Gaussians survive culling, how many tile instances sorting must
// order, and how many Gaussian-pixel blend evaluations rasterization
// performs. SceneProfile captures exactly those statistics per scene.
//
// Full-scale statistics are calibrated so that the CUDA baseline cost model
// reproduces the paper's published Orin NX runtimes (Table III, Figs. 4/5);
// the SAME profile then drives the GauRast cycle simulator, whose runtime,
// speedup, energy and FPS numbers are genuine model outputs. The calibration
// rationale for each constant is documented next to it in profile.cpp, and
// the Table III section of `gaurast_cli report` prints paper-vs-reproduced
// values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaurast::scene {

/// Which 3DGS pipeline variant a profile models.
enum class PipelineVariant {
  kOriginal,      ///< Kerbl et al. 2023 (reference 3DGS)
  kMiniSplatting  ///< Fang & Wang 2024 (efficiency-optimized, fewer Gaussians)
};

/// Workload statistics for rendering one frame of one scene.
struct SceneProfile {
  std::string name;
  PipelineVariant variant = PipelineVariant::kOriginal;

  // --- geometry of the rendering problem -------------------------------
  std::uint64_t gaussian_count = 0;  ///< Gaussians in the trained model
  int width = 0;                     ///< render resolution
  int height = 0;
  int sh_degree = 3;

  // --- workload statistics ---------------------------------------------
  /// Mean Gaussian-pixel pairs *evaluated* per output pixel during Step 3
  /// (includes pairs later discarded by the 1/255 alpha threshold; excludes
  /// pixels already terminated at T < 1e-4, as both the CUDA kernel and the
  /// PE skip those).
  double pairs_per_pixel = 0.0;

  /// Mean 16x16 tile instances per Gaussian produced by duplication in
  /// Step 2 (a Gaussian overlapping k tiles contributes k sort keys).
  double tile_instances_per_gaussian = 0.0;

  /// Fraction of Gaussians surviving frustum culling in Step 1.
  double cull_survival = 0.95;

  /// Skew of per-tile load (coefficient of variation of pairs per tile);
  /// drives the load-imbalance term of the fast simulator.
  double tile_load_cv = 0.8;

  // --- CUDA software-rasterizer calibration ----------------------------
  /// Effective FMA-equivalents the CUDA kernel spends per evaluated pair,
  /// folding real arithmetic (~30 flops), warp divergence, shared-memory
  /// staging and atomics. Calibrated per scene against paper Table III.
  double cuda_fma_per_pair = 50.0;

  // --- derived quantities ------------------------------------------------
  std::uint64_t pixel_count() const {
    return static_cast<std::uint64_t>(width) *
           static_cast<std::uint64_t>(height);
  }
  std::uint64_t total_pairs() const {
    return static_cast<std::uint64_t>(pairs_per_pixel *
                                      static_cast<double>(pixel_count()));
  }
  std::uint64_t tile_instances() const {
    return static_cast<std::uint64_t>(
        tile_instances_per_gaussian * static_cast<double>(gaussian_count));
  }
  std::uint64_t tile_count(int tile_size = 16) const;

  /// Returns a proportionally shrunk profile (factor in (0, 1]): Gaussian
  /// count and pixel dimensions scale so that real synthetic scenes with this
  /// workload can be rendered end-to-end in tests and examples.
  SceneProfile scaled(double factor) const;
};

/// The seven NeRF-360 scenes under the original 3DGS pipeline.
std::vector<SceneProfile> nerf360_profiles();

/// The same scenes under the Mini-Splatting efficiency-optimized pipeline.
std::vector<SceneProfile> nerf360_mini_profiles();

/// Looks up a profile by scene name; variant selects the pipeline.
SceneProfile profile_by_name(const std::string& name,
                             PipelineVariant variant = PipelineVariant::kOriginal);

/// Names of the seven scenes in canonical paper order.
const std::vector<std::string>& nerf360_scene_names();

}  // namespace gaurast::scene
