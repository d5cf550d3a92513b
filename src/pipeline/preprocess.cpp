#include "pipeline/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "gsmath/fastmath.hpp"
#include "gsmath/sh.hpp"

namespace gaurast::pipeline {

namespace {
constexpr float kNearPlane = 0.2f;  // matches the reference implementation
/// Fewest Gaussians per Step-1 chunk: below this a chunk costs more to hand
/// out than it saves.
constexpr std::size_t kMinGaussiansPerChunk = 256;
}  // namespace

ScenePrecompute precompute_scene(const scene::GaussianScene& scene,
                                 float alpha_min) {
  ScenePrecompute pre;
  pre.cov3d.reserve(scene.size());
  pre.raster_cutoff.reserve(scene.size());
  pre.cutoff_alpha_min = alpha_min;
  for (std::size_t i = 0; i < scene.size(); ++i) {
    pre.cov3d.push_back(
        covariance3d(scene.rotations()[i], scene.scales()[i]));
    pre.raster_cutoff.push_back(
        alpha_cutoff_power(alpha_min, scene.opacities()[i]));
  }
  return pre;
}

ProjectOutcome project_gaussian(const scene::GaussianScene& scene,
                                std::size_t index, const scene::Camera& camera,
                                Splat2D& out,
                                const ScenePrecompute* precompute) {
  // Per-Gaussian contract checks: debug-only, like every other per-element
  // invariant on the hot path (callers loop this over the whole scene).
  GAURAST_DCHECK(index < scene.size());
  GAURAST_DCHECK(precompute == nullptr ||
                 precompute->cov3d.size() == scene.size());
  const Vec3f world = scene.positions()[index];
  const Vec3f view = camera.to_view(world);
  if (view.z <= kNearPlane) return ProjectOutcome::kOutsideFrustum;

  // Generous screen-bounds cull, as in the reference implementation: keep
  // anything whose center projects within 1.3x the frustum.
  const float lim_x = 1.3f * camera.tan_half_fov_x() * view.z;
  const float lim_y = 1.3f * camera.tan_half_fov_y() * view.z;
  if (std::abs(view.x) > lim_x || std::abs(view.y) > lim_y) {
    return ProjectOutcome::kOutsideFrustum;
  }

  const Mat3f cov3d =
      precompute != nullptr
          ? precompute->cov3d[index]
          : covariance3d(scene.rotations()[index], scene.scales()[index]);
  const Cov2 cov2d = project_covariance(
      cov3d, view, camera.focal_x(), camera.focal_y(), camera.tan_half_fov_x(),
      camera.tan_half_fov_y(), camera.view_rotation());

  Conic2 conic;
  if (!invert_covariance(cov2d, conic)) return ProjectOutcome::kDegenerate;

  out.mean = camera.view_to_pixel(view);
  out.conic = conic;
  out.opacity = scene.opacities()[index];
  out.depth = view.z;
  out.radius = splat_radius(cov2d);
  out.color = eval_sh_color(scene.sh()[index], scene.sh_degree(),
                            world - camera.eye());
  out.source_id = static_cast<std::uint32_t>(index);
  return out.radius > 0.0f ? ProjectOutcome::kVisible
                           : ProjectOutcome::kDegenerate;
}

std::vector<Splat2D> preprocess(const scene::GaussianScene& scene,
                                const scene::Camera& camera,
                                PreprocessStats* stats,
                                const ScenePrecompute* precompute,
                                int num_threads) {
  GAURAST_CHECK(num_threads >= 1);
  const std::size_t n = scene.size();
  const std::size_t chunks =
      std::min(static_cast<std::size_t>(num_threads),
               common::chunks_for(n, kMinGaussiansPerChunk));
  // Each chunk projects a contiguous run of the scene into its own vector
  // and counts its own culls, so joining them in chunk order gives the
  // same splats and stats for any chunk count.
  std::vector<std::vector<Splat2D>> parts(chunks);
  std::vector<PreprocessStats> part_stats(chunks);
  common::parallel_for_workers(chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    std::vector<Splat2D>& out = parts[c];
    PreprocessStats& counts = part_stats[c];
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      Splat2D s;
      switch (project_gaussian(scene, i, camera, s, precompute)) {
        case ProjectOutcome::kVisible:
          out.push_back(s);
          break;
        case ProjectOutcome::kOutsideFrustum:
          ++counts.culled_frustum;
          break;
        case ProjectOutcome::kDegenerate:
          ++counts.culled_degenerate;
          break;
      }
    }
  });

  PreprocessStats total;
  total.gaussians_in = n;
  std::size_t visible = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    total.culled_frustum += part_stats[c].culled_frustum;
    total.culled_degenerate += part_stats[c].culled_degenerate;
    visible += parts[c].size();
  }
  std::vector<Splat2D> splats = std::move(parts[0]);
  splats.reserve(visible);
  for (std::size_t c = 1; c < chunks; ++c) {
    splats.insert(splats.end(), parts[c].begin(), parts[c].end());
  }
  total.splats_out = splats.size();
  if (stats) *stats = total;
  return splats;
}

}  // namespace gaurast::pipeline
