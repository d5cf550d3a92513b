// Tests for the Gaussian scene container, cameras, profiles, synthetic
// generator and scene IO.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"
#include "scene/generator.hpp"
#include "scene/profile.hpp"
#include "scene/scene_io.hpp"

namespace gaurast::scene {
namespace {

Gaussian3D make_valid_gaussian() {
  Gaussian3D g;
  g.position = {1, 2, 3};
  g.scale = {0.1f, 0.2f, 0.3f};
  g.opacity = 0.5f;
  g.sh[0] = {0.1f, 0.2f, 0.3f};
  return g;
}

// --------------------------------------------------------------- Scene --

TEST(GaussianScene, AddAndRetrieve) {
  GaussianScene scene(3);
  scene.add(make_valid_gaussian());
  ASSERT_EQ(scene.size(), 1u);
  const Gaussian3D g = scene.gaussian(0);
  EXPECT_EQ(g.position, (Vec3f{1, 2, 3}));
  EXPECT_FLOAT_EQ(g.opacity, 0.5f);
}

TEST(GaussianScene, RotationsNormalizedOnInsert) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.rotation = {2.0f, 0.0f, 0.0f, 0.0f};
  scene.add(g);
  EXPECT_NEAR(scene.rotations()[0].norm(), 1.0f, 1e-6f);
}

TEST(GaussianScene, RejectsInvalidOpacity) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.opacity = 1.5f;
  EXPECT_THROW(scene.add(g), Error);
  g.opacity = -0.1f;
  EXPECT_THROW(scene.add(g), Error);
}

TEST(GaussianScene, RejectsNegativeScaleAndNonFinitePosition) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.scale.x = -1.0f;
  EXPECT_THROW(scene.add(g), Error);
  g = make_valid_gaussian();
  g.position.y = std::numeric_limits<float>::infinity();
  EXPECT_THROW(scene.add(g), Error);
}

TEST(GaussianScene, InvalidShDegreeThrows) {
  EXPECT_THROW(GaussianScene(-1), Error);
  EXPECT_THROW(GaussianScene(4), Error);
}

TEST(GaussianScene, BytesPerGaussianByDegree) {
  EXPECT_EQ(GaussianScene(0).bytes_per_gaussian(), (11 + 3) * 4u);
  EXPECT_EQ(GaussianScene(3).bytes_per_gaussian(), (11 + 48) * 4u);
}

TEST(GaussianScene, BoundsCoverAllPositions) {
  GaussianScene scene(0);
  Gaussian3D g = make_valid_gaussian();
  g.position = {-5, 0, 0};
  scene.add(g);
  g.position = {3, 7, -2};
  scene.add(g);
  const Aabb box = scene.bounds();
  ASSERT_TRUE(box.valid);
  EXPECT_EQ(box.lo.x, -5.0f);
  EXPECT_EQ(box.hi.y, 7.0f);
}

TEST(GaussianScene, EmptyBoundsInvalid) {
  EXPECT_FALSE(GaussianScene(0).bounds().valid);
}

TEST(GaussianScene, PrunedKeepsMostImportant) {
  GaussianScene scene(0);
  Gaussian3D big = make_valid_gaussian();
  big.scale = {1.0f, 1.0f, 1.0f};
  big.opacity = 0.9f;
  big.position = {9, 9, 9};
  Gaussian3D small = make_valid_gaussian();
  small.scale = {0.01f, 0.01f, 0.01f};
  small.opacity = 0.1f;
  for (int i = 0; i < 9; ++i) scene.add(small);
  scene.add(big);
  const GaussianScene kept = scene.pruned(1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.positions()[0], (Vec3f{9, 9, 9}));
}

TEST(GaussianScene, PruneMoreThanSizeKeepsAll) {
  GaussianScene scene(0);
  scene.add(make_valid_gaussian());
  EXPECT_EQ(scene.pruned(100).size(), 1u);
}

// -------------------------------------------------------------- Camera --

TEST(Camera, EyeProjectsToPositiveDepthAhead) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec3f v = cam.to_view({0, 0, 0});
  EXPECT_NEAR(v.z, 5.0f, 1e-4f);  // +Z forward convention
}

TEST(Camera, CenterOfViewMapsToImageCenter) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec2f px = cam.view_to_pixel({0, 0, 5.0f});
  EXPECT_NEAR(px.x, 320.0f, 0.5f);
  EXPECT_NEAR(px.y, 240.0f, 0.5f);
}

TEST(Camera, UpIsImageUp) {
  const Camera cam(640, 480, 0.9f, {0, 0, -5}, {0, 0, 0});
  const Vec3f above = cam.to_view({0, 1, 0});
  const Vec2f px = cam.view_to_pixel(above);
  EXPECT_LT(px.y, 240.0f);  // rows decrease upward
}

TEST(Camera, NegativeDepthPixelThrows) {
  const Camera cam(64, 48, 0.9f, {0, 0, -5}, {0, 0, 0});
  EXPECT_THROW(cam.view_to_pixel({0, 0, -1.0f}), Error);
}

TEST(Camera, FocalConsistentWithFov) {
  const Camera cam(800, 600, 1.0f, {0, 0, -3}, {0, 0, 0});
  EXPECT_NEAR(cam.focal_y(),
              600.0f / (2.0f * std::tan(0.5f)), 1e-2f);
  EXPECT_GT(cam.fov_x(), cam.fov_y());  // wider than tall
}

TEST(Camera, InvalidConstructionThrows) {
  EXPECT_THROW(Camera(0, 480, 0.9f, {0, 0, -5}, {0, 0, 0}), Error);
  EXPECT_THROW(Camera(640, 480, 0.0f, {0, 0, -5}, {0, 0, 0}), Error);
}

TEST(OrbitPath, GeneratesRequestedViews) {
  const auto cams = orbit_path(320, 240, 0.9f, {0, 0, 0}, 5.0f, 1.0f, 8);
  ASSERT_EQ(cams.size(), 8u);
  for (const Camera& cam : cams) {
    // Every camera sees the center at positive depth.
    EXPECT_GT(cam.to_view({0, 0, 0}).z, 0.0f);
  }
}

// ------------------------------------------------------------ Profiles --

TEST(Profiles, SevenScenesInPaperOrder) {
  const auto profiles = nerf360_profiles();
  ASSERT_EQ(profiles.size(), 7u);
  EXPECT_EQ(profiles[0].name, "bicycle");
  EXPECT_EQ(profiles[6].name, "bonsai");
}

TEST(Profiles, MiniVariantHasFewerGaussiansAndPairs) {
  for (const auto& name : nerf360_scene_names()) {
    const SceneProfile orig = profile_by_name(name, PipelineVariant::kOriginal);
    const SceneProfile mini =
        profile_by_name(name, PipelineVariant::kMiniSplatting);
    EXPECT_LT(mini.gaussian_count, orig.gaussian_count) << name;
    EXPECT_LT(mini.total_pairs(), orig.total_pairs()) << name;
  }
}

TEST(Profiles, DerivedQuantitiesConsistent) {
  const SceneProfile p = profile_by_name("bicycle");
  EXPECT_EQ(p.pixel_count(), 1237u * 822u);
  EXPECT_NEAR(static_cast<double>(p.total_pairs()),
              p.pairs_per_pixel * static_cast<double>(p.pixel_count()),
              static_cast<double>(p.pixel_count()));
  EXPECT_EQ(p.tile_count(16), 78u * 52u);
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(profile_by_name("nonexistent"), Error);
}

TEST(Profiles, ScaledPreservesIntensiveQuantities) {
  const SceneProfile p = profile_by_name("garden");
  const SceneProfile s = p.scaled(0.01);
  EXPECT_NEAR(static_cast<double>(s.gaussian_count),
              static_cast<double>(p.gaussian_count) * 0.01, 2.0);
  EXPECT_DOUBLE_EQ(s.pairs_per_pixel, p.pairs_per_pixel);
  // Pixel count scales ~linearly with the factor.
  EXPECT_NEAR(static_cast<double>(s.pixel_count()) /
                  static_cast<double>(p.pixel_count()),
              0.01, 0.002);
}

TEST(Profiles, ScaledRejectsBadFactors) {
  const SceneProfile p = profile_by_name("room");
  EXPECT_THROW(p.scaled(0.0), Error);
  EXPECT_THROW(p.scaled(1.5), Error);
}

// ----------------------------------------------------------- Generator --

TEST(Generator, DeterministicInSeed) {
  GeneratorParams params;
  params.gaussian_count = 500;
  const GaussianScene a = generate_scene(params);
  const GaussianScene b = generate_scene(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 50) {
    EXPECT_EQ(a.positions()[i], b.positions()[i]);
    EXPECT_EQ(a.opacities()[i], b.opacities()[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorParams params;
  params.gaussian_count = 100;
  const GaussianScene a = generate_scene(params);
  params.seed = 43;
  const GaussianScene b = generate_scene(params);
  EXPECT_NE(a.positions()[0], b.positions()[0]);
}

TEST(Generator, CountRespected) {
  GeneratorParams params;
  params.gaussian_count = 1234;
  EXPECT_EQ(generate_scene(params).size(), 1234u);
}

TEST(Generator, AllInvariantsHold) {
  GeneratorParams params;
  params.gaussian_count = 2000;
  const GaussianScene scene = generate_scene(params);
  for (std::size_t i = 0; i < scene.size(); ++i) {
    EXPECT_GE(scene.opacities()[i], 0.0f);
    EXPECT_LE(scene.opacities()[i], 1.0f);
    EXPECT_GT(scene.scales()[i].x, 0.0f);
  }
}

TEST(Generator, BackgroundShellIsFar) {
  GeneratorParams params;
  params.gaussian_count = 1000;
  params.object_fraction = 0.0;
  params.ground_fraction = 0.0;  // everything in the background shell
  const GaussianScene scene = generate_scene(params);
  // Shell radius is 0.8-1.2x background_radius before the y-flattening the
  // generator applies, so the norm can shrink to ~0.4x at the poles.
  int far_count = 0;
  for (const Vec3f& p : scene.positions()) {
    EXPECT_GT(p.norm(), params.background_radius * 0.35f);
    if (p.norm() > params.background_radius * 0.7f) ++far_count;
  }
  EXPECT_GT(far_count, static_cast<int>(scene.size() / 2));
}

TEST(Generator, ProfileDrivenSceneMatchesCount) {
  const SceneProfile profile = profile_by_name("bonsai").scaled(0.001);
  const GaussianScene scene = generate_scene_for_profile(profile);
  EXPECT_EQ(scene.size(), profile.gaussian_count);
}

/// FNV-1a over every float of a scene, SH bands above its degree included.
std::uint64_t scene_hash(const GaussianScene& scene) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](float v) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < scene.size(); ++i) {
    const Vec3f p = scene.positions()[i];
    const Vec3f s = scene.scales()[i];
    const Quatf q = scene.rotations()[i];
    for (float v : {p.x, p.y, p.z, s.x, s.y, s.z, q.w, q.x, q.y, q.z,
                    scene.opacities()[i]}) {
      mix(v);
    }
    for (const Vec3f& c : scene.sh()[i]) {
      mix(c.x);
      mix(c.y);
      mix(c.z);
    }
  }
  return h;
}

TEST(Generator, GoldenScenesAreBitStable) {
  // Recorded from the all-serial generator. The counts straddle the SH
  // fill's 512-splat per-worker minimum, from the calling thread alone to
  // two, three and four workers, and degree 1's odd count of AC normals
  // (9) flips the Box-Muller cache parity from one splat to the next.
  struct Golden {
    std::uint64_t seed;
    int sh_degree;
    std::uint64_t count;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {1, 0, 1, 0x84ea75d0899fef58ULL},
      {1, 0, 2, 0xaebc2d1c4f08ccb1ULL},
      {1, 0, 511, 0x5ad6f141487173f0ULL},
      {1, 0, 512, 0x19a760f27d806df2ULL},
      {1, 0, 513, 0x0132ac75a7e51078ULL},
      {1, 0, 1025, 0x2ed4dd6afb5f7c19ULL},
      {1, 0, 2000, 0x1a0b77dd32bd8ceeULL},
      {1, 0, 3980, 0x8c6758ecacbe2205ULL},
      {1, 0, 8000, 0xb8c55bdcf7ed0e74ULL},
      {1, 1, 1, 0xd44cf4907ac325feULL},
      {1, 1, 2, 0x953b4dcf95a0d41bULL},
      {1, 1, 511, 0x4e86af101c08806fULL},
      {1, 1, 512, 0x4aed653201a9eb4dULL},
      {1, 1, 513, 0x9e40e7cf821c5588ULL},
      {1, 1, 1025, 0x9ca535dccac4f3edULL},
      {1, 1, 2000, 0x958a027285c6c74dULL},
      {1, 1, 3980, 0x676cc2f4a56ca37fULL},
      {1, 1, 8000, 0x16cd46cdec26809cULL},
      {1, 2, 1, 0xaa1e0f61c1762d74ULL},
      {1, 2, 2, 0xd71a572f1fcf70a7ULL},
      {1, 2, 511, 0x264df22d0e236d4aULL},
      {1, 2, 512, 0xa5d32d446f8ea04aULL},
      {1, 2, 513, 0x30dd42cc547eb4a0ULL},
      {1, 2, 1025, 0x93a3d4dacaea33a3ULL},
      {1, 2, 2000, 0xa7777330efb84251ULL},
      {1, 2, 3980, 0x0a511fb61bbe3751ULL},
      {1, 2, 8000, 0xe94e8aa741943362ULL},
      {1, 3, 1, 0xc0a6916f55fefe50ULL},
      {1, 3, 2, 0xd571fd34b5ffff5cULL},
      {1, 3, 511, 0x2e61b8243ac70605ULL},
      {1, 3, 512, 0xa3966da880706816ULL},
      {1, 3, 513, 0x9e8fb57b1bd58b7bULL},
      {1, 3, 1025, 0xb46298111d0c7a26ULL},
      {1, 3, 2000, 0x9b142df9849a7973ULL},
      {1, 3, 3980, 0xc96a182441b63daeULL},
      {1, 3, 8000, 0x8ff347e60e1a318fULL},
      {42, 0, 1, 0xd07128bdcab7ad37ULL},
      {42, 0, 2, 0x1caeea669fb512e4ULL},
      {42, 0, 511, 0x943475305826dc27ULL},
      {42, 0, 512, 0x95352ed7afaa9d50ULL},
      {42, 0, 513, 0xa94a701c2a6cdd9eULL},
      {42, 0, 1025, 0x9f155eef29b9c59eULL},
      {42, 0, 2000, 0x2c2f4a24315bad96ULL},
      {42, 0, 3980, 0xdee95e3e3baf1639ULL},
      {42, 0, 8000, 0x5b6fc13b4e344496ULL},
      {42, 1, 1, 0xabf7301ce9e9b33aULL},
      {42, 1, 2, 0x14f55f8f90e770deULL},
      {42, 1, 511, 0x69cb0371bdade976ULL},
      {42, 1, 512, 0xdf2194e08baa12c9ULL},
      {42, 1, 513, 0xec4a67f93ec4054fULL},
      {42, 1, 1025, 0xb2d6e0c5596b3535ULL},
      {42, 1, 2000, 0x35f006a3d09f3720ULL},
      {42, 1, 3980, 0x622916d51d4c7706ULL},
      {42, 1, 8000, 0xe941604973dd8826ULL},
      {42, 2, 1, 0x8ad7635e88632f82ULL},
      {42, 2, 2, 0x8136aaf792808a87ULL},
      {42, 2, 511, 0x1e9725174151b762ULL},
      {42, 2, 512, 0x94a12a951f9d56d8ULL},
      {42, 2, 513, 0xda8c6f5845ff306bULL},
      {42, 2, 1025, 0x4ad3ae3fa1783391ULL},
      {42, 2, 2000, 0x473d4e425f107f6dULL},
      {42, 2, 3980, 0x0711659e8c014a90ULL},
      {42, 2, 8000, 0x066a51c0719d2274ULL},
      {42, 3, 1, 0xec504a892b41d995ULL},
      {42, 3, 2, 0xcf4563f28e3ab187ULL},
      {42, 3, 511, 0x17ddcb29ba4faab3ULL},
      {42, 3, 512, 0x7accc5cf9a473bb2ULL},
      {42, 3, 513, 0xd94ccee7c641975eULL},
      {42, 3, 1025, 0xf59c47ceec98f332ULL},
      {42, 3, 2000, 0xdf163fcb675f4b4cULL},
      {42, 3, 3980, 0xcadf0309b22fbb4dULL},
      {42, 3, 8000, 0xda91fce24b516708ULL},
  };
  for (const Golden& g : goldens) {
    GeneratorParams params;
    params.seed = g.seed;
    params.sh_degree = g.sh_degree;
    params.gaussian_count = g.count;
    EXPECT_EQ(scene_hash(generate_scene(params)), g.hash)
        << "seed " << g.seed << ", degree " << g.sh_degree << ", count "
        << g.count;
  }
}

TEST(Generator, InvalidFractionsThrow) {
  GeneratorParams params;
  params.object_fraction = 0.8;
  params.ground_fraction = 0.3;
  EXPECT_THROW(generate_scene(params), Error);
}

// ------------------------------------------------------------------ IO --

TEST(SceneIo, RoundTripPreservesEverything) {
  GeneratorParams params;
  params.gaussian_count = 64;
  const GaussianScene scene = generate_scene(params);
  const std::string path = ::testing::TempDir() + "/scene_roundtrip.gsc";
  save_scene(scene, path);
  const GaussianScene loaded = load_scene(path);
  ASSERT_EQ(loaded.size(), scene.size());
  EXPECT_EQ(loaded.sh_degree(), scene.sh_degree());
  for (std::size_t i = 0; i < scene.size(); ++i) {
    EXPECT_EQ(loaded.positions()[i], scene.positions()[i]);
    EXPECT_EQ(loaded.opacities()[i], scene.opacities()[i]);
    EXPECT_EQ(loaded.sh()[i][0], scene.sh()[i][0]);
  }
  std::remove(path.c_str());
}

TEST(SceneIo, MissingFileThrows) {
  EXPECT_THROW(load_scene("/nonexistent/dir/file.gsc"), Error);
}

TEST(SceneIo, BadMagicThrows) {
  const std::string path = ::testing::TempDir() + "/bad_magic.gsc";
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE-not-a-scene";
  }
  EXPECT_THROW(load_scene(path), Error);
  std::remove(path.c_str());
}

TEST(SceneIo, TruncatedPayloadThrows) {
  GeneratorParams params;
  params.gaussian_count = 16;
  const GaussianScene scene = generate_scene(params);
  const std::string path = ::testing::TempDir() + "/truncated.gsc";
  save_scene(scene, path);
  // Truncate the file to half its size.
  {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    const auto full = static_cast<std::size_t>(is.tellg());
    is.seekg(0);
    std::string content(full, '\0');
    is.read(content.data(), static_cast<std::streamsize>(full));
    is.close();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(),
             static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(load_scene(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gaurast::scene
