#include "scene/profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gaurast::scene {

namespace {

// ---------------------------------------------------------------------------
// Calibration (paper-vs-reproduced values: the Table III and Fig. 4
// sections of `gaurast_cli report`).
//
// Resolutions: the 3DGS evaluation renders NeRF-360 outdoor scenes at 4x
// downsample (~1237x822) and indoor scenes at 2x (~1557x1038); we use those.
//
// Gaussian counts: published model sizes of the reference 3DGS checkpoints
// (Kerbl et al. 2023, supplementary), rounded.
//
// pairs_per_pixel: back-solved from the paper's GauRast runtimes (Table III)
// assuming the scaled 300-PE configuration at 1 GHz with ~0.97 achieved
// utilization: pairs = t_gau * 300e9 * 0.97. These are *workload* constants;
// the simulator re-derives runtime (and its own utilization) from them.
//
// cuda_fma_per_pair: back-solved from the paper's CUDA baselines (Table III)
// against the Orin NX 10 W sustained FP32 rate (1024 cores * 612 MHz =
// 626.7 GFMA/s): cost = t_base * rate / pairs. Values land at 48-61
// FMA-equivalents per evaluated pair — i.e. the CUDA kernel spends ~30 real
// flops plus ~20-30 equivalents of divergence/staging overhead, consistent
// with published 3DGS kernel analyses.
//
// tile_instances_per_gaussian: back-solved so the GPU model's Step-2 radix
// sort time makes Steps 1+2 equal ~1/5 of the Step-3 baseline time for the
// original pipeline (paper Fig. 5 shows Step 3 at >80% of frame time) and
// ~1/3 for Mini-Splatting (fewer Gaussians raise the relative sort share).
// ---------------------------------------------------------------------------

struct Row {
  const char* name;
  std::uint64_t gaussians;
  int width;
  int height;
  double pairs_per_pixel;
  double tile_instances_per_gaussian;
  double cuda_fma_per_pair;
  double tile_load_cv;
};

// Original 3DGS pipeline (Kerbl et al. 2023).
constexpr Row kOriginalRows[] = {
    // name      gaussians  w     h     ppp     inst/G  fma/pair cv
    {"bicycle", 6100000, 1237, 822, 4292.0, 4.7, 46.1, 0.95},
    {"stump", 4900000, 1237, 822, 1717.0, 1.4, 53.4, 0.85},
    {"garden", 5800000, 1237, 822, 2747.0, 2.8, 52.0, 0.90},
    {"room", 1500000, 1557, 1038, 1890.0, 20.3, 48.4, 0.75},
    {"counter", 1200000, 1557, 1038, 1765.0, 23.8, 47.4, 0.75},
    {"kitchen", 1800000, 1557, 1038, 2196.0, 19.2, 47.4, 0.80},
    {"bonsai", 1200000, 1557, 1038, 990.0, 15.2, 57.5, 0.70},
};

// Mini-Splatting (Fang & Wang 2024): ~10x fewer Gaussians with larger
// per-Gaussian footprints; rasterization work shrinks to ~29% of the
// original (paper Fig. 10 reports a 20x rather than 23x raster speedup and
// Fig. 11 a 46 FPS end-to-end average).
constexpr Row kMiniRows[] = {
    {"bicycle", 600000, 1237, 822, 1303.0, 35.0, 44.0, 0.80},
    {"stump", 490000, 1237, 822, 608.0, 26.0, 47.6, 0.72},
    {"garden", 560000, 1237, 822, 947.0, 30.0, 45.5, 0.76},
    {"room", 420000, 1557, 1038, 550.0, 40.0, 44.6, 0.65},
    {"counter", 400000, 1557, 1038, 507.0, 42.0, 44.1, 0.65},
    {"kitchen", 450000, 1557, 1038, 628.0, 41.0, 43.6, 0.68},
    {"bonsai", 400000, 1557, 1038, 372.0, 36.0, 49.3, 0.60},
};

SceneProfile from_row(const Row& row, PipelineVariant variant) {
  SceneProfile p;
  p.name = row.name;
  p.variant = variant;
  p.gaussian_count = row.gaussians;
  p.width = row.width;
  p.height = row.height;
  p.pairs_per_pixel = row.pairs_per_pixel;
  p.tile_instances_per_gaussian = row.tile_instances_per_gaussian;
  p.cuda_fma_per_pair = row.cuda_fma_per_pair;
  p.tile_load_cv = row.tile_load_cv;
  p.cull_survival = 0.95;
  p.sh_degree = 3;
  return p;
}

}  // namespace

std::uint64_t SceneProfile::tile_count(int tile_size) const {
  GAURAST_CHECK(tile_size > 0);
  const auto tx = static_cast<std::uint64_t>((width + tile_size - 1) / tile_size);
  const auto ty =
      static_cast<std::uint64_t>((height + tile_size - 1) / tile_size);
  return tx * ty;
}

SceneProfile SceneProfile::scaled(double factor) const {
  GAURAST_CHECK_MSG(factor > 0.0 && factor <= 1.0,
                    "scale factor " << factor << " out of (0,1]");
  SceneProfile p = *this;
  p.name = name + "-s" + std::to_string(factor).substr(0, 4);
  // Linear dimensions scale with sqrt(factor) so pixel count scales with
  // factor; Gaussian count scales with factor; per-pixel blend depth is an
  // intensive quantity and is preserved.
  const double lin = std::sqrt(factor);
  p.width = std::max(16, static_cast<int>(width * lin));
  p.height = std::max(16, static_cast<int>(height * lin));
  p.gaussian_count = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(static_cast<double>(gaussian_count) * factor));
  return p;
}

std::vector<SceneProfile> nerf360_profiles() {
  std::vector<SceneProfile> out;
  for (const Row& r : kOriginalRows)
    out.push_back(from_row(r, PipelineVariant::kOriginal));
  return out;
}

std::vector<SceneProfile> nerf360_mini_profiles() {
  std::vector<SceneProfile> out;
  for (const Row& r : kMiniRows)
    out.push_back(from_row(r, PipelineVariant::kMiniSplatting));
  return out;
}

const std::vector<std::string>& nerf360_scene_names() {
  static const std::vector<std::string> names = {
      "bicycle", "stump", "garden", "room", "counter", "kitchen", "bonsai"};
  return names;
}

SceneProfile profile_by_name(const std::string& name, PipelineVariant variant) {
  const auto rows = variant == PipelineVariant::kOriginal
                        ? nerf360_profiles()
                        : nerf360_mini_profiles();
  for (const SceneProfile& p : rows) {
    if (p.name == name) return p;
  }
  GAURAST_CHECK_MSG(false, "unknown scene profile: " << name);
  return {};
}

}  // namespace gaurast::scene
