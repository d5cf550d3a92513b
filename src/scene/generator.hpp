// Synthetic Gaussian-scene generation.
//
// Generates procedurally structured scenes whose workload statistics mimic
// the NeRF-360 captures: a dense cluster of object Gaussians near the scene
// center, a ground disc, and a sparse large-Gaussian background shell (the
// structure reconstruction produces for unbounded 360-degree captures).
// Every draw is deterministic in the seed: the view-dependent SH bands are
// drawn after the serial pass, across threads for large scenes, from copies
// of the generator, and land bit-identical to an in-line draw.
#pragma once

#include <cstdint>

#include "common/prng.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"
#include "scene/profile.hpp"

namespace gaurast::scene {

struct GeneratorParams {
  std::uint64_t gaussian_count = 10000;
  std::uint64_t seed = 42;
  int sh_degree = 3;

  float scene_radius = 4.0f;       ///< radius of the central object cluster
  float background_radius = 20.0f; ///< radius of the background shell
  double object_fraction = 0.70;   ///< share of Gaussians in the cluster
  double ground_fraction = 0.15;   ///< share on the ground disc
  // remaining share goes to the background shell

  /// Log-normal parameters of per-axis Gaussian scales (world units).
  double log_scale_mu = -3.7;
  double log_scale_sigma = 0.6;

  /// Beta-ish opacity distribution: most splats fairly opaque, a tail of
  /// faint ones (matches trained-model opacity histograms).
  double opacity_alpha = 2.0;
  double opacity_beta = 1.0;

  /// Magnitude of view-dependent SH bands relative to DC.
  float sh_ac_magnitude = 0.15f;
};

/// Builds a scene from explicit parameters.
GaussianScene generate_scene(const GeneratorParams& params);

/// Builds a scaled synthetic stand-in for a profile: `scale` shrinks the
/// Gaussian count (see SceneProfile::scaled); splat sizes are chosen so the
/// screen-space footprint distribution lands near the profile's
/// pairs-per-pixel regime when viewed from the default orbit camera.
GaussianScene generate_scene_for_profile(const SceneProfile& profile,
                                         std::uint64_t seed = 42);

/// Default evaluation camera for generated scenes: orbit viewpoint at
/// 2.2x scene radius looking at the origin.
Camera default_camera(const GeneratorParams& params, int width, int height);

}  // namespace gaurast::scene
