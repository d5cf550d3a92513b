// Step 1 of the 3DGS pipeline (paper Fig. 3(b)): frustum culling, EWA
// projection of each 3D Gaussian to a 2D screen-space splat, SH-to-RGB color
// conversion along the view ray, and depth computation.
#pragma once

#include <cstdint>
#include <vector>

#include "gsmath/conic.hpp"
#include "gsmath/vec.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::pipeline {

/// A projected 2D Gaussian — the primitive Step 3 rasterizes. The per-pixel
/// datapath consumes exactly 9 FP values (conic a/b/c, mean x/y, opacity,
/// color r/g/b), matching the paper's Table II input width; depth feeds the
/// Step 2 sort only.
struct Splat2D {
  Vec2f mean;           ///< screen-space center, pixels
  Conic2 conic;         ///< inverse 2D covariance
  float opacity = 0.0f;
  Vec3f color;          ///< RGB from SH evaluation
  float depth = 0.0f;   ///< view-space depth (sort key)
  float radius = 0.0f;  ///< conservative 3-sigma pixel radius
  std::uint32_t source_id = 0;  ///< index into the source scene
};

struct PreprocessStats {
  std::uint64_t gaussians_in = 0;
  std::uint64_t culled_frustum = 0;    ///< behind near plane / out of view
  std::uint64_t culled_degenerate = 0; ///< singular projected covariance
  std::uint64_t splats_out = 0;
};

/// Camera-independent per-scene state, shared across every frame of one
/// scene: the 3D covariance of each Gaussian (rotation/scale never change
/// between frames, so recomputing covariance3d per frame is pure waste when
/// the same scene serves many cameras) and the fast raster kernel's
/// exp()-skip cutoff (a pure function of opacity and the blend threshold).
/// Built once by precompute_scene() and shared immutably across frames;
/// rendering with a precompute is bit-identical to rendering without one —
/// the same arithmetic runs, just earlier and once.
struct ScenePrecompute {
  std::vector<Mat3f> cov3d;  ///< one per scene Gaussian, in scene order
  /// gsmath::alpha_cutoff_power(cutoff_alpha_min, opacity) per Gaussian;
  /// consumers index it by Splat2D::source_id and must check that their
  /// blend threshold matches cutoff_alpha_min (falling back to the inline
  /// computation otherwise — never a wrong value, only a missed reuse).
  std::vector<float> raster_cutoff;
  float cutoff_alpha_min = 0.0f;
};

/// Computes the camera-independent per-scene state above; `alpha_min` is
/// the blend threshold raster_cutoff is built for (BlendParams::alpha_min
/// of the configuration that will render the scene). Deterministic in
/// (scene, alpha_min).
ScenePrecompute precompute_scene(const scene::GaussianScene& scene,
                                 float alpha_min = 1.0f / 255.0f);

/// Runs Step 1 for every Gaussian in the scene. Deterministic; splats retain
/// scene order (the sort in Step 2 establishes depth order). `precompute`,
/// when non-null, must have been built from `scene` and replaces the
/// per-Gaussian covariance3d computation with a lookup (bit-identical
/// output either way). With `num_threads` > 1 the scene is projected in up
/// to that many contiguous chunks on the common::parallel_for_workers pool;
/// splats and stats are byte-identical for any thread count.
std::vector<Splat2D> preprocess(const scene::GaussianScene& scene,
                                const scene::Camera& camera,
                                PreprocessStats* stats = nullptr,
                                const ScenePrecompute* precompute = nullptr,
                                int num_threads = 1);

/// What project_gaussian did with one Gaussian. The culled outcomes are
/// what PreprocessStats counts as culled_frustum and culled_degenerate.
enum class ProjectOutcome {
  kVisible,         ///< `out` holds the splat
  kOutsideFrustum,  ///< behind the near plane or center off-screen
  kDegenerate,      ///< singular projected covariance or zero radius
};

/// Projects a single Gaussian into `out`, which is meaningful only when
/// the outcome is kVisible. Exposed for unit tests. `precompute` as in
/// preprocess().
ProjectOutcome project_gaussian(const scene::GaussianScene& scene,
                                std::size_t index, const scene::Camera& camera,
                                Splat2D& out,
                                const ScenePrecompute* precompute = nullptr);

}  // namespace gaurast::pipeline
