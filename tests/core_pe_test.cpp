// Tests for the PE functional datapath: exact agreement with the software
// reference arithmetic (FP32), FP16 rounding behaviour, and op accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.hpp"
#include "core/pe.hpp"

namespace gaurast::core {
namespace {

pipeline::Splat2D random_splat(Pcg32& rng) {
  pipeline::Splat2D s;
  s.mean = {static_cast<float>(rng.uniform(0, 32)),
            static_cast<float>(rng.uniform(0, 32))};
  const float d1 = static_cast<float>(rng.lognormal(-2.0, 0.8)) + 0.01f;
  const float d2 = static_cast<float>(rng.lognormal(-2.0, 0.8)) + 0.01f;
  const float theta = static_cast<float>(rng.uniform(0, 3.14159));
  const float c = std::cos(theta), sn = std::sin(theta);
  s.conic.a = c * c * d1 + sn * sn * d2;
  s.conic.b = c * sn * (d1 - d2);
  s.conic.c = sn * sn * d1 + c * c * d2;
  s.opacity = static_cast<float>(rng.uniform(0.05, 0.99));
  s.color = {static_cast<float>(rng.uniform(0, 1)),
             static_cast<float>(rng.uniform(0, 1)),
             static_cast<float>(rng.uniform(0, 1))};
  return s;
}

TEST(PeGaussian, MatchesSoftwareReferenceExactly) {
  Pcg32 rng(2024);
  const pipeline::BlendParams params;
  OpCounts counters;
  for (int i = 0; i < 2000; ++i) {
    const pipeline::Splat2D s = random_splat(rng);
    const Vec2f pixel{static_cast<float>(rng.uniform(0, 32)),
                      static_cast<float>(rng.uniform(0, 32))};
    // Software path.
    pipeline::PixelBlendState sw;
    sw.transmittance = static_cast<float>(rng.uniform(0.01, 1.0));
    sw.accumulated = {static_cast<float>(rng.uniform(0, 0.5)),
                      static_cast<float>(rng.uniform(0, 0.5)),
                      static_cast<float>(rng.uniform(0, 0.5))};
    pipeline::PixelBlendState hw = sw;
    const float alpha = pipeline::eval_splat_alpha(s, pixel, params);
    const bool blended = pipeline::accumulate(sw, alpha, s.color, params);
    // Hardware path.
    const GaussianPairResult r =
        pe_gaussian_pair(s, pixel, hw, params, Precision::kFp32, counters);
    EXPECT_EQ(r.blended(), blended);
    // Bit-exact state agreement.
    EXPECT_EQ(hw.transmittance, sw.transmittance);
    EXPECT_EQ(hw.accumulated.x, sw.accumulated.x);
    EXPECT_EQ(hw.accumulated.y, sw.accumulated.y);
    EXPECT_EQ(hw.accumulated.z, sw.accumulated.z);
  }
}

TEST(PeGaussian, AlphaClampedToMax) {
  pipeline::Splat2D s;
  s.mean = {0, 0};
  s.conic = {0.001f, 0.0f, 0.001f};
  s.opacity = 1.0f;
  s.color = {1, 1, 1};
  pipeline::BlendParams params;
  pipeline::PixelBlendState state;
  OpCounts counters;
  const GaussianPairResult r =
      pe_gaussian_pair(s, {0, 0}, state, params, Precision::kFp32, counters);
  EXPECT_FLOAT_EQ(r.alpha, params.alpha_max);
}

TEST(PeGaussian, FarPixelRejectsWithoutBlend) {
  pipeline::Splat2D s;
  s.mean = {0, 0};
  s.conic = {1.0f, 0.0f, 1.0f};
  s.opacity = 0.9f;
  pipeline::BlendParams params;
  pipeline::PixelBlendState state;
  OpCounts counters;
  const GaussianPairResult r =
      pe_gaussian_pair(s, {100, 100}, state, params, Precision::kFp32,
                       counters);
  EXPECT_FALSE(r.blended());
  EXPECT_EQ(state.transmittance, 1.0f);
}

TEST(PeGaussian, OpCountsMatchInventoryForBlendedPair) {
  pipeline::Splat2D s;
  s.mean = {0, 0};
  s.conic = {0.5f, 0.0f, 0.5f};
  s.opacity = 0.5f;
  s.color = {0.2f, 0.3f, 0.4f};
  pipeline::BlendParams params;
  pipeline::PixelBlendState state;
  OpCounts counters;
  const GaussianPairResult r =
      pe_gaussian_pair(s, {0.3f, 0.2f}, state, params, Precision::kFp32,
                       counters);
  ASSERT_TRUE(r.blended());
  EXPECT_EQ(counters, gaussian_pair_ops(GaussianOutcome::kBlended));
  EXPECT_EQ(counters.divs, 0u);  // no divider in Gaussian mode
}

TEST(PeGaussian, RejectedPairCountsFewerOps) {
  pipeline::Splat2D s;
  s.mean = {0, 0};
  s.conic = {1.0f, 0.0f, 1.0f};
  s.opacity = 0.9f;
  pipeline::BlendParams params;
  pipeline::PixelBlendState state;
  OpCounts counters;
  pe_gaussian_pair(s, {50, 50}, state, params, Precision::kFp32, counters);
  EXPECT_LT(counters.muls, gaussian_pair_ops(GaussianOutcome::kBlended).muls);
  EXPECT_EQ(counters.adds, 4u);  // shift + power sum only
}

TEST(PeGaussian, GuardedPairStopsBeforeExp) {
  pipeline::Splat2D s;
  s.mean = {0, 0};
  s.conic = {-1.0f, 0.0f, -1.0f};  // not positive definite: power > 0
  s.opacity = 0.9f;
  s.color = {1, 1, 1};
  pipeline::BlendParams params;
  pipeline::PixelBlendState state;
  OpCounts counters;
  const GaussianPairResult r =
      pe_gaussian_pair(s, {1, 1}, state, params, Precision::kFp32, counters);
  EXPECT_EQ(r.outcome, GaussianOutcome::kGuarded);
  EXPECT_EQ(state.transmittance, 1.0f);
  EXPECT_EQ(counters, (OpCounts{.adds = 4, .muls = 6, .cmps = 1}));
}

TEST(PeGaussian, Fp16DiffersFromFp32ButStaysClose) {
  Pcg32 rng(7);
  const pipeline::BlendParams params;
  OpCounts counters;
  int diff_count = 0;
  for (int i = 0; i < 300; ++i) {
    const pipeline::Splat2D s = random_splat(rng);
    const Vec2f pixel{static_cast<float>(rng.uniform(0, 32)),
                      static_cast<float>(rng.uniform(0, 32))};
    pipeline::PixelBlendState full, half;
    pe_gaussian_pair(s, pixel, full, params, Precision::kFp32, counters);
    pe_gaussian_pair(s, pixel, half, params, Precision::kFp16, counters);
    if (full.transmittance != half.transmittance) ++diff_count;
    EXPECT_NEAR(full.transmittance, half.transmittance, 0.01f);
    EXPECT_NEAR(full.accumulated.x, half.accumulated.x, 0.01f);
  }
  EXPECT_GT(diff_count, 0);  // FP16 rounding must actually happen
}

TEST(PeGaussian, TransmittanceNeverNegative) {
  Pcg32 rng(11);
  const pipeline::BlendParams params;
  OpCounts counters;
  pipeline::PixelBlendState state;
  for (int i = 0;
       i < 500 && !(state.transmittance < params.transmittance_min); ++i) {
    const pipeline::Splat2D s = random_splat(rng);
    pe_gaussian_pair(s, s.mean, state, params, Precision::kFp32, counters);
    EXPECT_GE(state.transmittance, 0.0f);
  }
}

// ------------------------------------------------------- Triangle mode --

TEST(PeTriangle, MatchesReferenceFragment) {
  mesh::ScreenTriangle tri;
  tri.p0 = {2, 2};
  tri.p1 = {30, 4};
  tri.p2 = {16, 28};
  tri.inv_double_area =
      1.0f / mesh::edge_function(tri.p0, tri.p1, tri.p2);
  tri.z0 = 1.0f;
  tri.z1 = 2.0f;
  tri.z2 = 3.0f;
  tri.c0 = {1, 0, 0};
  tri.c1 = {0, 1, 0};
  tri.c2 = {0, 0, 1};
  OpCounts counters;
  float depth = std::numeric_limits<float>::infinity();
  Vec3f color{0, 0, 0};
  ASSERT_TRUE(pe_triangle_pair(tri, {16, 12}, depth, color,
                               Precision::kFp32, counters));
  const mesh::TriangleFragment frag = mesh::eval_triangle_at(tri, {16, 12});
  EXPECT_EQ(depth, frag.depth);
  EXPECT_EQ(color.x, frag.color.x);
}

TEST(PeTriangle, DepthTestHoldsNearest) {
  mesh::ScreenTriangle tri;
  tri.p0 = {0, 0};
  tri.p1 = {20, 0};
  tri.p2 = {0, 20};
  tri.inv_double_area = 1.0f / mesh::edge_function(tri.p0, tri.p1, tri.p2);
  tri.z0 = tri.z1 = tri.z2 = 5.0f;
  tri.c0 = tri.c1 = tri.c2 = {1, 0, 0};
  OpCounts counters;
  float depth = 2.0f;  // something nearer already drawn
  Vec3f color{0, 1, 0};
  EXPECT_FALSE(pe_triangle_pair(tri, {4, 4}, depth, color, Precision::kFp32,
                                counters));
  EXPECT_EQ(color, (Vec3f{0, 1, 0}));  // held
  EXPECT_EQ(depth, 2.0f);
}

TEST(PeTriangle, OutsidePixelDoesNotTouchState) {
  mesh::ScreenTriangle tri;
  tri.p0 = {0, 0};
  tri.p1 = {4, 0};
  tri.p2 = {0, 4};
  tri.inv_double_area = 1.0f / mesh::edge_function(tri.p0, tri.p1, tri.p2);
  OpCounts counters;
  float depth = std::numeric_limits<float>::infinity();
  Vec3f color{0.1f, 0.2f, 0.3f};
  EXPECT_FALSE(pe_triangle_pair(tri, {50, 50}, depth, color, Precision::kFp32,
                                counters));
  EXPECT_EQ(color, (Vec3f{0.1f, 0.2f, 0.3f}));
  // A miss retires only the edge increments and inside tests.
  EXPECT_EQ(counters, (OpCounts{.adds = 3, .cmps = 3}));
}

TEST(PeTriangle, SetupUsesDivider) {
  EXPECT_EQ(kTriangleSetupOps, (OpCounts{.adds = 5, .muls = 2, .divs = 1}));
}

TEST(PeTriangle, CoveredPairOpsMatchInventory) {
  mesh::ScreenTriangle tri;
  tri.p0 = {0, 0};
  tri.p1 = {20, 0};
  tri.p2 = {0, 20};
  tri.inv_double_area = 1.0f / mesh::edge_function(tri.p0, tri.p1, tri.p2);
  OpCounts counters;
  float depth = std::numeric_limits<float>::infinity();
  Vec3f color;
  pe_triangle_pair(tri, {4, 4}, depth, color, Precision::kFp32, counters);
  // 3 edge increments + 6 depth/attribute adds; 9 barycentric and
  // interpolation muls; 3 inside tests + the depth compare; no exp.
  EXPECT_EQ(counters, (OpCounts{.adds = 9, .muls = 9, .cmps = 4}));
}

TEST(PeResources, InventoryMatchesPaper) {
  const PeResources res{};
  EXPECT_EQ(res.shared_adders, 9);
  EXPECT_EQ(res.shared_multipliers, 9);
  EXPECT_EQ(res.triangle_dividers, 1);
  EXPECT_EQ(res.gaussian_adders, 2);
  EXPECT_EQ(res.gaussian_multipliers, 1);
  EXPECT_EQ(res.gaussian_exp_units, 1);
  EXPECT_EQ(res.total_adders(), 11);
  EXPECT_EQ(res.total_multipliers(), 10);
}

}  // namespace
}  // namespace gaurast::core
