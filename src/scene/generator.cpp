#include "scene/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "gsmath/sh.hpp"

namespace gaurast::scene {

namespace {

/// Fewest splats per worker in the SH fill: a scene below twice this is
/// filled on the calling thread (512 degree-3 splats are ~0.5 ms of draws).
constexpr std::size_t kMinSplatsPerWorker = 512;

/// Crude Beta(alpha, beta) sampler via Johnk's algorithm — adequate for
/// opacity shaping, not performance critical.
double sample_beta(Pcg32& rng, double alpha, double beta) {
  for (int i = 0; i < 64; ++i) {
    const double u = std::pow(rng.uniform(), 1.0 / alpha);
    const double v = std::pow(rng.uniform(), 1.0 / beta);
    if (u + v <= 1.0 && u + v > 0.0) return u / (u + v);
  }
  return 0.5;  // pathological parameters; return the mean-ish fallback
}

Vec3f random_unit_vector(Pcg32& rng) {
  // Marsaglia method.
  for (;;) {
    const float a = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float b = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float s = a * a + b * b;
    if (s >= 1.0f || s == 0.0f) continue;
    const float t = 2.0f * std::sqrt(1.0f - s);
    return {a * t, b * t, 1.0f - 2.0f * s};
  }
}

Quatf random_rotation(Pcg32& rng) {
  // Uniform over SO(3) via Shoemake's method.
  const float u1 = static_cast<float>(rng.uniform());
  const float u2 = static_cast<float>(rng.uniform());
  const float u3 = static_cast<float>(rng.uniform());
  const float s1 = std::sqrt(1.0f - u1), s2 = std::sqrt(u1);
  const float t2 = 2.0f * 3.14159265f * u2, t3 = 2.0f * 3.14159265f * u3;
  return Quatf{s1 * std::sin(t2), s1 * std::cos(t2), s2 * std::sin(t3),
               s2 * std::cos(t3)}
      .normalized();
}

/// Draws every splat's view-dependent (AC) SH bands in place, each from the
/// generator copy kept where its block starts in the serial stream. Splats
/// are independent then, so a large scene splits them across workers.
void fill_sh_ac(std::span<ShCoefficients> sh, const std::vector<Pcg32>& starts,
                int degree, float ac_magnitude) {
  const std::size_t bands = sh_basis_count(degree);
  if (bands == 1) return;  // degree 0: DC only
  const auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Pcg32 rng = starts[i];
      for (std::size_t band = 1; band < bands; ++band) {
        sh[i][band] = Vec3f{static_cast<float>(rng.normal(0.0, ac_magnitude)),
                            static_cast<float>(rng.normal(0.0, ac_magnitude)),
                            static_cast<float>(rng.normal(0.0, ac_magnitude))};
      }
    }
  };
  const std::size_t n = sh.size();
  const std::size_t workers =
      std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()),
                            n / kMinSplatsPerWorker);
  if (workers <= 1) {
    fill(0, n);
    return;
  }
  common::parallel_for_workers(workers, [&](std::size_t w) {
    fill(n * w / workers, n * (w + 1) / workers);
  });
}

Vec3f palette_color(Pcg32& rng) {
  // Muted natural palette: greens/browns/greys with occasional saturated
  // accents, roughly matching reconstructed-capture statistics.
  const double pick = rng.uniform();
  Vec3f base;
  if (pick < 0.4) base = {0.35f, 0.45f, 0.25f};       // foliage
  else if (pick < 0.7) base = {0.45f, 0.38f, 0.30f};  // wood/earth
  else if (pick < 0.9) base = {0.55f, 0.55f, 0.58f};  // stone/grey
  else base = {0.7f, 0.3f, 0.25f};                    // accent
  const auto jitter = [&](float v) {
    return clampf(v + static_cast<float>(rng.normal(0.0, 0.08)), 0.02f, 0.98f);
  };
  return {jitter(base.x), jitter(base.y), jitter(base.z)};
}

}  // namespace

GaussianScene generate_scene(const GeneratorParams& params) {
  GAURAST_CHECK(params.gaussian_count > 0);
  GAURAST_CHECK(params.object_fraction + params.ground_fraction <= 1.0);
  Pcg32 rng(params.seed);
  GaussianScene out(params.sh_degree);
  out.reserve(params.gaussian_count);

  const auto n_total = params.gaussian_count;
  const auto n_object =
      static_cast<std::uint64_t>(params.object_fraction * static_cast<double>(n_total));
  const auto n_ground =
      static_cast<std::uint64_t>(params.ground_fraction * static_cast<double>(n_total));

  // Central cluster: a mixture of sub-clusters for realistic clumping,
  // each centre drawn from its own stream.
  std::array<Vec3f, 8> centres;
  for (std::size_t k = 0; k < centres.size(); ++k) {
    Pcg32 cluster_rng(params.seed * 977u + k);
    centres[k] = {
        static_cast<float>(cluster_rng.normal(0.0, 0.5)) * params.scene_radius,
        static_cast<float>(cluster_rng.uniform(0.0, 0.8)) * params.scene_radius,
        static_cast<float>(cluster_rng.normal(0.0, 0.5)) * params.scene_radius};
  }

  // Each splat's AC SH block is skipped in the serial stream and drawn
  // afterwards from a copy of the generator taken where the block starts,
  // so the scene is bit-identical to drawing it in line.
  const std::uint64_t ac_normals = 3 * (sh_basis_count(params.sh_degree) - 1);
  std::vector<Pcg32> sh_starts;
  sh_starts.reserve(n_total);

  for (std::uint64_t i = 0; i < n_total; ++i) {
    Gaussian3D g;
    float size_multiplier = 1.0f;
    if (i < n_object) {
      const Vec3f c = centres[rng.next_below(8)];
      const float spread = 0.25f * params.scene_radius;
      g.position = c + Vec3f{static_cast<float>(rng.normal(0.0, spread)),
                             static_cast<float>(rng.normal(0.0, spread * 0.7)),
                             static_cast<float>(rng.normal(0.0, spread))};
    } else if (i < n_object + n_ground) {
      // Ground disc: flattened Gaussians at y ~ 0.
      const float r = params.scene_radius *
                      2.0f * std::sqrt(static_cast<float>(rng.uniform()));
      const float theta = static_cast<float>(rng.uniform(0.0, 2.0 * 3.14159265));
      g.position = {r * std::cos(theta),
                    static_cast<float>(rng.normal(0.0, 0.02)),
                    r * std::sin(theta)};
      size_multiplier = 1.6f;
    } else {
      // Background shell: large, distant splats.
      const Vec3f dir = random_unit_vector(rng);
      const float r = params.background_radius *
                      static_cast<float>(rng.uniform(0.8, 1.2));
      g.position = dir * r;
      g.position.y = std::abs(g.position.y) * 0.5f;  // keep above horizon-ish
      size_multiplier = 8.0f;
    }

    const auto s = [&]() {
      return size_multiplier *
             static_cast<float>(rng.lognormal(params.log_scale_mu,
                                              params.log_scale_sigma));
    };
    g.scale = {s(), s(), s()};
    if (i >= n_object && i < n_object + n_ground) g.scale.y *= 0.15f;  // flat
    g.rotation = random_rotation(rng);
    g.opacity = static_cast<float>(
        std::clamp(sample_beta(rng, params.opacity_alpha, params.opacity_beta),
                   0.02, 0.99));
    g.sh[0] = sh_dc_from_rgb(palette_color(rng));
    sh_starts.push_back(rng);
    rng.skip_normals(ac_normals);
    out.add(g);
  }
  fill_sh_ac(out.mutable_sh(), sh_starts, params.sh_degree,
             params.sh_ac_magnitude);
  return out;
}

GaussianScene generate_scene_for_profile(const SceneProfile& profile,
                                         std::uint64_t seed) {
  GeneratorParams params;
  params.gaussian_count = profile.gaussian_count;
  params.seed = seed;
  params.sh_degree = profile.sh_degree;
  // Denser scenes (more pairs per pixel relative to Gaussian count) need
  // larger splats; scale the log-size so footprint grows with the profile's
  // per-Gaussian tile duplication.
  params.log_scale_mu =
      -3.7 + 0.35 * std::log(std::max(1.0, profile.tile_instances_per_gaussian));
  if (profile.variant == PipelineVariant::kMiniSplatting) {
    // Mini-Splatting keeps fewer but individually more significant splats.
    params.opacity_alpha = 3.0;
    params.log_scale_sigma = 0.5;
  }
  return generate_scene(params);
}

Camera default_camera(const GeneratorParams& params, int width, int height) {
  const float r = 2.2f * params.scene_radius;
  return Camera(width, height, 0.9f, Vec3f{r, 0.6f * params.scene_radius, r},
                Vec3f{0.0f, 0.3f * params.scene_radius, 0.0f});
}

}  // namespace gaurast::scene
