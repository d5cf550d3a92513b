// Golden tests for the optimized Step-3 kernel (RasterKernel::kFast) and
// the parallel Step-2 binning path: both must be bit-identical to their
// serial/reference oracles — same images, same stats totals, same
// TileWorkload — across tile sizes, culling modes, stats modes and thread
// counts. This is the contract that lets the fast paths replace the
// reference implementations everywhere without weakening the repo's
// software-vs-hardware validation story.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "gsmath/fastmath.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"

namespace gaurast::pipeline {
namespace {

scene::Camera test_camera(int w = 96, int h = 72) {
  scene::GeneratorParams params;
  return scene::default_camera(params, w, h);
}

scene::GaussianScene small_scene(std::uint64_t count = 1200,
                                 std::uint64_t seed = 42) {
  scene::GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  return scene::generate_scene(params);
}

void expect_stats_equal(const RasterStats& a, const RasterStats& b) {
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
  EXPECT_EQ(a.pairs_blended, b.pairs_blended);
  EXPECT_EQ(a.pixels_terminated, b.pixels_terminated);
  ASSERT_EQ(a.pairs_per_tile.size(), b.pairs_per_tile.size());
  for (std::size_t t = 0; t < a.pairs_per_tile.size(); ++t) {
    EXPECT_EQ(a.pairs_per_tile[t], b.pairs_per_tile[t]) << "tile " << t;
  }
}

void expect_workloads_equal(const TileWorkload& a, const TileWorkload& b) {
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].key, b.instances[i].key) << "instance " << i;
    EXPECT_EQ(a.instances[i].splat_index, b.instances[i].splat_index)
        << "instance " << i;
  }
  ASSERT_EQ(a.ranges.size(), b.ranges.size());
  for (std::size_t t = 0; t < a.ranges.size(); ++t) {
    EXPECT_EQ(a.ranges[t].begin, b.ranges[t].begin) << "tile " << t;
    EXPECT_EQ(a.ranges[t].end, b.ranges[t].end) << "tile " << t;
  }
}

// ------------------------------------------------- Fast kernel golden --

/// The acceptance matrix: tile sizes {8,16,32,64} x both culling modes x
/// stats {on,off} x 1..8 threads, every cell bit-identical to the
/// reference kernel (image) with exactly matching stats totals.
TEST(FastKernelGolden, MatchesReferenceAcrossMatrix) {
  const auto gscene = small_scene();
  const auto cam = test_camera();
  for (const int tile_size : {8, 16, 32, 64}) {
    for (const CullingMode culling :
         {CullingMode::kBoundingBox, CullingMode::kTightEllipse}) {
      RendererConfig config;
      config.tile_size = tile_size;
      config.culling = culling;
      const GaussianRenderer renderer(config);
      const FrameResult prep = renderer.prepare(gscene, cam);
      RasterStats ref_stats;
      const Image reference =
          rasterize(prep.splats, prep.workload, config.blend, &ref_stats, 1,
                    RasterKernel::kReference);
      for (int threads = 1; threads <= 8; ++threads) {
        SCOPED_TRACE("tile=" + std::to_string(tile_size) + " culling=" +
                     std::to_string(static_cast<int>(culling)) +
                     " threads=" + std::to_string(threads));
        // Stats on: image and every counter must match.
        RasterStats fast_stats;
        const Image with_stats =
            rasterize(prep.splats, prep.workload, config.blend, &fast_stats,
                      threads, RasterKernel::kFast);
        EXPECT_EQ(with_stats.max_abs_diff(reference), 0.0f);
        expect_stats_equal(fast_stats, ref_stats);
        // Stats off: the zero-bookkeeping instantiation renders the same
        // image.
        const Image without_stats =
            rasterize(prep.splats, prep.workload, config.blend, nullptr,
                      threads, RasterKernel::kFast);
        EXPECT_EQ(without_stats.max_abs_diff(reference), 0.0f);
      }
    }
  }
}

TEST(FastKernelGolden, RendererLevelSelectionIsBitExact) {
  const auto gscene = small_scene(900);
  const auto cam = test_camera();
  RendererConfig reference_config;
  RendererConfig fast_config;
  fast_config.kernel = RasterKernel::kFast;
  fast_config.num_threads = 3;
  const FrameResult a =
      GaussianRenderer(reference_config).render(gscene, cam);
  const FrameResult b = GaussianRenderer(fast_config).render(gscene, cam);
  EXPECT_EQ(a.image.max_abs_diff(b.image), 0.0f);
  expect_stats_equal(a.raster_stats, b.raster_stats);
}

/// An opaque stack saturates pixels quickly: the fast kernel's batch
/// early-out and per-lane termination accounting must reproduce the
/// reference pixels_terminated count exactly.
TEST(FastKernelGolden, TerminationHeavyStackMatches) {
  std::vector<Splat2D> splats(40);
  for (std::size_t i = 0; i < splats.size(); ++i) {
    splats[i].mean = {24.0f, 24.0f};
    splats[i].conic = {0.01f, 0.0f, 0.01f};
    splats[i].opacity = 0.95f;
    splats[i].radius = 24.0f;
    splats[i].depth = 1.0f + static_cast<float>(i);
    splats[i].color = {0.5f, 0.4f, 0.3f};
  }
  TileGrid grid{16, 48, 48};
  const TileWorkload work = sort_splats(splats, grid);
  RasterStats ref_stats, fast_stats;
  const Image a =
      rasterize(splats, work, BlendParams{}, &ref_stats, 1,
                RasterKernel::kReference);
  const Image b = rasterize(splats, work, BlendParams{}, &fast_stats, 1,
                            RasterKernel::kFast);
  EXPECT_GT(ref_stats.pixels_terminated, 0u);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
  expect_stats_equal(fast_stats, ref_stats);
}

/// Non-default blend parameters exercise every discard branch: zero
/// alpha_min (where even guarded alpha == 0 pairs blend), disabled early
/// termination, an opacity exactly at the blend threshold, and a non-black
/// background.
TEST(FastKernelGolden, EdgeBlendParamsMatch) {
  std::vector<Splat2D> splats(3);
  splats[0].mean = {10.0f, 10.0f};
  splats[0].conic = {0.08f, 0.01f, 0.06f};
  splats[0].opacity = 1.0f / 255.0f;  // exactly alpha_min
  splats[0].color = {0.9f, 0.1f, 0.2f};
  splats[0].depth = 1.0f;
  splats[0].radius = 12.0f;
  splats[1].mean = {20.0f, 14.0f};
  splats[1].conic = {0.02f, 0.0f, 0.02f};
  splats[1].opacity = 0.9f;
  splats[1].color = {0.2f, 0.8f, 0.4f};
  splats[1].depth = 2.0f;
  splats[1].radius = 20.0f;
  splats[2].mean = {16.0f, 20.0f};
  splats[2].conic = {0.5f, 0.2f, 0.4f};
  splats[2].opacity = 0.0f;  // never blends
  splats[2].color = {1.0f, 1.0f, 1.0f};
  splats[2].depth = 3.0f;
  splats[2].radius = 6.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);

  std::vector<BlendParams> cases(4);
  cases[0].alpha_min = 0.0f;  // zero-alpha pairs blend as exact no-ops
  cases[1].transmittance_min = 0.0f;  // early termination disabled
  cases[2].alpha_max = 2.0f;  // clamp never engages
  cases[3].background = {0.25f, 0.5f, 0.75f};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    RasterStats ref_stats, fast_stats;
    const Image a = rasterize(splats, work, cases[c], &ref_stats, 1,
                              RasterKernel::kReference);
    const Image b =
        rasterize(splats, work, cases[c], &fast_stats, 1, RasterKernel::kFast);
    EXPECT_EQ(a.max_abs_diff(b), 0.0f);
    expect_stats_equal(fast_stats, ref_stats);
  }
}

/// Regression: a conic large enough to overflow the Gaussian power to
/// -inf, combined with alpha_min == 0 (where zero-alpha pairs still blend
/// as exact no-ops), must not be skipped by the exp() cutoff — stats and
/// image both have to match the reference.
TEST(FastKernelGolden, OverflowedPowerWithZeroAlphaMinMatches) {
  std::vector<Splat2D> splats(1);
  splats[0].mean = {0.5f, 0.5f};
  splats[0].conic = {3e38f, 0.0f, 3e38f};
  splats[0].opacity = 0.9f;
  splats[0].color = {1.0f, 0.5f, 0.2f};
  splats[0].depth = 1.0f;
  splats[0].radius = 40.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);
  BlendParams params;
  params.alpha_min = 0.0f;
  RasterStats ref_stats, fast_stats;
  const Image a = rasterize(splats, work, params, &ref_stats, 1,
                            RasterKernel::kReference);
  const Image b =
      rasterize(splats, work, params, &fast_stats, 1, RasterKernel::kFast);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
  expect_stats_equal(fast_stats, ref_stats);
}

/// Regression: a NaN opacity (unsanitized scene input) blends at alpha_max
/// through the reference arithmetic (std::min(alpha_max, NaN) returns
/// alpha_max); the cutoff must not classify it as skippable.
TEST(FastKernelGolden, NanOpacityMatchesReference) {
  std::vector<Splat2D> splats(1);
  splats[0].mean = {8.0f, 8.0f};
  splats[0].conic = {0.05f, 0.0f, 0.05f};
  splats[0].opacity = std::numeric_limits<float>::quiet_NaN();
  splats[0].color = {0.3f, 0.6f, 0.9f};
  splats[0].depth = 1.0f;
  splats[0].radius = 10.0f;
  TileGrid grid{16, 32, 32};
  const TileWorkload work = sort_splats(splats, grid);
  RasterStats ref_stats, fast_stats;
  const Image a = rasterize(splats, work, BlendParams{}, &ref_stats, 1,
                            RasterKernel::kReference);
  const Image b = rasterize(splats, work, BlendParams{}, &fast_stats, 1,
                            RasterKernel::kFast);
  EXPECT_GT(ref_stats.pairs_blended, 0u);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
  expect_stats_equal(fast_stats, ref_stats);
}

TEST(FastKernel, ScratchArenaIsReusedAcrossFrames) {
  const auto gscene = small_scene(800);
  const auto cam = test_camera();
  const GaussianRenderer renderer;
  const FrameResult prep = renderer.prepare(gscene, cam);
  rasterize(prep.splats, prep.workload, renderer.config().blend, nullptr, 1,
            RasterKernel::kFast);
  RasterScratch& scratch = thread_raster_scratch();
  const std::size_t capacity = scratch.capacity();
  const float* staged = scratch.mean_x.data();
  EXPECT_GT(capacity, 0u);
  // A second frame of the same shape must not grow or reallocate the
  // calling thread's arena — serving reuses it job after job.
  rasterize(prep.splats, prep.workload, renderer.config().blend, nullptr, 1,
            RasterKernel::kFast);
  EXPECT_EQ(thread_raster_scratch().capacity(), capacity);
  EXPECT_EQ(thread_raster_scratch().mean_x.data(), staged);
}

TEST(FastKernel, KernelNamesRoundTrip) {
  EXPECT_EQ(raster_kernel_from_string("reference"), RasterKernel::kReference);
  EXPECT_EQ(raster_kernel_from_string("fast"), RasterKernel::kFast);
  EXPECT_STREQ(to_string(RasterKernel::kReference), "reference");
  EXPECT_STREQ(to_string(RasterKernel::kFast), "fast");
  EXPECT_THROW(raster_kernel_from_string("cuda"), Error);
}

TEST(AlphaCutoff, NeverSkipsABlendablePair) {
  // Sweep powers across the cutoff neighborhood: every power the cutoff
  // would skip must evaluate below alpha_min through the reference
  // arithmetic.
  const float alpha_min = 1.0f / 255.0f;
  for (const float opacity : {0.001f, 0.004f, 0.05f, 0.5f, 0.99f, 1.0f}) {
    const float cutoff = alpha_cutoff_power(alpha_min, opacity);
    for (int i = 0; i < 100; ++i) {
      const float power = cutoff - static_cast<float>(i) * 1e-4f;
      const float alpha = std::min(0.99f, opacity * std::exp(power));
      EXPECT_LT(alpha, alpha_min)
          << "opacity " << opacity << " power " << power;
    }
  }
  // Degenerate parameter regimes fall back to never/always cuttable.
  EXPECT_LT(alpha_cutoff_power(0.0f, 0.5f), -1e30f);
  EXPECT_GT(alpha_cutoff_power(alpha_min, 0.0f), 1e30f);
}

// ------------------------------------------------------------ Band skip --

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Bit-for-bit image equality, so NaN pixels have to match as well.
void expect_images_bit_identical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      EXPECT_EQ(std::memcmp(&a.at(x, y), &b.at(x, y), sizeof(Vec3f)), 0)
          << "pixel (" << x << ", " << y << ")";
    }
  }
}

float uniform_f(Pcg32& rng, double lo, double hi) {
  return static_cast<float>(rng.uniform(lo, hi));
}

/// A conic chosen to stress the band bound or to make it inapplicable.
/// `limit` is -cutoff of the splat being built (used to put band edges on
/// whole pixel offsets); `nx`, `ny` receive those offsets (0 otherwise).
Conic2 adversarial_conic(Pcg32& rng, float limit, int& nx, int& ny) {
  nx = ny = 0;
  const auto correlated = [&](float a, float c, double rho) {
    return Conic2{a, static_cast<float>(rho * std::sqrt(double{a} * c)), c};
  };
  switch (rng.next_below(8)) {
    case 0:  // well conditioned
      return correlated(static_cast<float>(rng.lognormal(-2.0, 1.5)),
                        static_cast<float>(rng.lognormal(-2.0, 1.5)),
                        rng.uniform(-0.9, 0.9));
    case 1: {  // near-degenerate: b^2 ~= ac, sometimes exactly or beyond
      const double gap = std::pow(10.0, -rng.uniform(1.0, 9.0));
      const double rho = rng.next_below(4) == 0 ? 1.0 : 1.0 - gap;
      return correlated(static_cast<float>(rng.lognormal(-2.0, 1.0)),
                        static_cast<float>(rng.lognormal(-2.0, 1.0)),
                        rng.next_below(2) ? rho : -rho);
    }
    case 2: {  // strongly anisotropic, rotated
      const double l1 = std::pow(10.0, rng.uniform(-3.0, 1.0));
      const double l2 = l1 * std::pow(10.0, rng.uniform(-6.0, 0.0));
      const double theta = rng.uniform(0.0, 3.14159265358979);
      const double cs = std::cos(theta);
      const double sn = std::sin(theta);
      return Conic2{static_cast<float>(l1 * cs * cs + l2 * sn * sn),
                    static_cast<float>((l1 - l2) * sn * cs),
                    static_cast<float>(l1 * sn * sn + l2 * cs * cs)};
    }
    case 3:  // entries that overflow the power to -inf, +inf or NaN
      return correlated(std::min(3e38f, static_cast<float>(std::pow(
                                            10.0, rng.uniform(30.0, 39.0)))),
                        std::min(3e38f, static_cast<float>(std::pow(
                                            10.0, rng.uniform(30.0, 39.0)))),
                        rng.uniform(-0.99, 0.99));
    case 4: {  // a <= 0 or c <= 0
      const float bad = rng.next_below(2) ? 0.0f : -uniform_f(rng, 1e-3, 1.0);
      const float good = static_cast<float>(rng.lognormal(-2.0, 1.0));
      const float b = uniform_f(rng, -0.1, 0.1);
      return rng.next_below(2) ? Conic2{bad, b, good} : Conic2{good, b, bad};
    }
    case 5: {  // a non-finite entry
      const float values[] = {kNaN, kInf, -kInf};
      Conic2 q{0.05f, 0.01f, 0.07f};
      float* entries[] = {&q.a, &q.b, &q.c};
      *entries[rng.next_below(3)] = values[rng.next_below(3)];
      return q;
    }
    case 6:  // band edges on whole pixel offsets (b = 0: ky = c/2, kx = a/2)
      if (std::isfinite(limit) && limit > 0.0f) {
        nx = 1 + static_cast<int>(rng.next_below(12));
        ny = 1 + static_cast<int>(rng.next_below(12));
        return Conic2{2.0f * limit / static_cast<float>(nx * nx), 0.0f,
                      2.0f * limit / static_cast<float>(ny * ny)};
      }
      return Conic2{0.05f, 0.0f, 0.05f};
    default:  // wide and faint enough to cover the frame
      return correlated(uniform_f(rng, 1e-4, 5e-3), uniform_f(rng, 1e-4, 5e-3),
                        rng.uniform(-0.5, 0.5));
  }
}

float adversarial_opacity(Pcg32& rng, const BlendParams& params) {
  switch (rng.next_below(9)) {
    case 0: return 0.0f;
    case 1: return params.alpha_min;
    case 2: return std::nextafter(params.alpha_min, 1.0f);
    case 3: return kNaN;
    case 4: return 1.5f;
    case 5: return -0.25f;
    case 6: return 0.99f;
    default: return uniform_f(rng, 0.0, 1.0);
  }
}

/// One splat of a random adversarial frame. Its mean lands anywhere near
/// the frame, on a pixel centre, on a row-batch boundary, or is NaN, huge
/// or infinite; when the conic puts band edges on whole pixel offsets, the
/// mean sits so those edges fall on pixel centres and batch boundaries.
Splat2D adversarial_splat(Pcg32& rng, int width, int height,
                          const BlendParams& params) {
  Splat2D sp;
  sp.opacity = adversarial_opacity(rng, params);
  const float limit = -alpha_cutoff_power(params.alpha_min, sp.opacity);
  int nx = 0;
  int ny = 0;
  sp.conic = adversarial_conic(rng, limit, nx, ny);
  const auto pixel_centre = [&](int extent) {
    return static_cast<float>(rng.next_below(
               static_cast<std::uint32_t>(extent) + 8)) - 3.5f;
  };
  if (nx > 0) {
    // Column edge on a batch's first or last pixel, row edge on a centre.
    const int batch = 8 * static_cast<int>(rng.next_below(
                              static_cast<std::uint32_t>(width / 8 + 1)));
    const int edge_px = rng.next_below(2) ? batch : batch + 7;
    sp.mean = {static_cast<float>(edge_px + (rng.next_below(2) ? nx : -nx)) +
                   0.5f,
               pixel_centre(height)};
  } else {
    switch (rng.next_below(10)) {
      case 0:
        sp.mean = {pixel_centre(width), pixel_centre(height)};
        break;
      case 1:
        sp.mean = {8.0f * static_cast<float>(rng.next_below(6)),
                   8.0f * static_cast<float>(rng.next_below(6)) + 0.5f};
        break;
      case 2:
        sp.mean = rng.next_below(2) ? Vec2f{kNaN, 5.0f} : Vec2f{5.0f, kNaN};
        break;
      case 3: {
        const float far[] = {1e20f, -1e20f, kInf, -kInf};
        sp.mean = {far[rng.next_below(4)], uniform_f(rng, 0.0, height)};
        if (rng.next_below(2)) std::swap(sp.mean.x, sp.mean.y);
        break;
      }
      default:
        sp.mean = {uniform_f(rng, -10.0, width + 10.0),
                   uniform_f(rng, -10.0, height + 10.0)};
    }
  }
  sp.color = {uniform_f(rng, 0.0, 1.0), uniform_f(rng, 0.0, 1.0),
              uniform_f(rng, 0.0, 1.0)};
  sp.depth = uniform_f(rng, 0.5, 50.0);
  return sp;
}

/// The band skip's differential test: many small seeded frames of
/// adversarial splats, every blend-parameter regime, widths and heights
/// that are not multiples of 8 or of the tile size, 1-3 threads. Images and
/// every RasterStats field must match the reference kernel bit for bit.
TEST(FastKernelGolden, AdversarialBandFramesMatchReference) {
  Pcg32 rng(20261017);
  const float alpha_mins[] = {0.0f, 1.0f / 255.0f, 0.5f};
  const float transmittance_mins[] = {0.0f, 1e-4f, 2.0f};
  const int tile_sizes[] = {8, 16, 32};
  std::uint64_t blended = 0;
  for (int frame = 0; frame < 1080; ++frame) {
    BlendParams params;
    params.alpha_min = alpha_mins[frame % 3];
    params.transmittance_min = transmittance_mins[(frame / 3) % 3];
    params.background = {0.1f, 0.2f, 0.3f};
    const TileGrid grid{tile_sizes[rng.next_below(3)],
                        1 + static_cast<int>(rng.next_below(45)),
                        1 + static_cast<int>(rng.next_below(45))};
    std::vector<Splat2D> splats(1 + rng.next_below(24));
    for (Splat2D& sp : splats) {
      sp = adversarial_splat(rng, grid.width, grid.height, params);
    }
    // Bin finite stand-ins (a random centre and radius per splat), so the
    // kernels see every mean, however adversarial, in assorted tiles.
    std::vector<Splat2D> binned = splats;
    for (Splat2D& sp : binned) {
      sp.mean = {uniform_f(rng, 0.0, grid.width),
                 uniform_f(rng, 0.0, grid.height)};
      sp.radius = uniform_f(rng, 0.0, grid.width + grid.height);
    }
    const TileWorkload work = sort_splats(binned, grid);
    const int threads = 1 + frame % 3;
    SCOPED_TRACE("frame " + std::to_string(frame));
    RasterStats ref_stats, fast_stats;
    const Image a = rasterize(splats, work, params, &ref_stats, 1,
                              RasterKernel::kReference);
    const Image b = rasterize(splats, work, params, &fast_stats, threads,
                              RasterKernel::kFast);
    expect_images_bit_identical(a, b);
    expect_stats_equal(fast_stats, ref_stats);
    expect_images_bit_identical(
        a, rasterize(splats, work, params, nullptr, threads,
                     RasterKernel::kFast));
    blended += ref_stats.pairs_blended;
    if (::testing::Test::HasFailure()) break;  // one frame's report is enough
  }
  EXPECT_GT(blended, 0u);
}

/// The smallest positive float d with (d * d) * k > 1: the first offset the
/// band test skips.
float first_skipped_offset(float k) {
  float d = std::sqrt(1.0f / k);
  while (d * d * k > 1.0f) d = std::nextafter(d, 0.0f);
  while (!(d * d * k > 1.0f)) d = std::nextafter(d, kInf);
  return d;
}

/// The float power of the fast kernel's arithmetic at offsets just beyond
/// a band edge, swept across the free offset that maximises it, must stay
/// below the cutoff — and the band must be nearly tight for a
/// well-conditioned conic, so the skip actually fires.
TEST(PowerBand, FloatPowerBelowCutoffJustOutsideBand) {
  const float alpha_min = 1.0f / 255.0f;
  const Vec2f mean{20.3f, 17.7f};
  const Conic2 conics[] = {
      {0.05f, 0.0f, 0.05f},           // isotropic
      {0.2f, 0.06f, 0.03f},           // correlated
      {0.0031f, -0.0098f, 0.0312f},   // rho ~= -0.99
      {1.0f, 0.99999f, 1.0f},         // rho ~= 1 - 1e-5
      {7.5f, -2.0f, 0.6f},            // small, rotated
      {1e-4f, 3e-5f, 2e-2f},          // strongly anisotropic
  };
  for (const Conic2& q : conics) {
    for (const float opacity : {0.004f, 0.05f, 0.5f, 0.99f, 1.0f}) {
      const float cutoff = alpha_cutoff_power(alpha_min, opacity);
      const PowerBand band = power_band(q, mean, cutoff, 64, 48);
      SCOPED_TRACE("conic (" + std::to_string(q.a) + ", " +
                   std::to_string(q.b) + ", " + std::to_string(q.c) +
                   ") opacity " + std::to_string(opacity));
      // Row band: worst dx is -b dy / a; column band: worst dy is -b dx / c.
      for (const bool rows : {true, false}) {
        const float k = rows ? band.y : band.x;
        if (k == 0.0f) continue;
        const float along = rows ? q.a : q.c;
        float d = first_skipped_offset(k);
        for (int step = 0; step < 4; ++step, d = std::nextafter(d, kInf)) {
          for (const float sign : {1.0f, -1.0f}) {
            const float fixed = sign * d;
            const float worst = -q.b * fixed / along;
            const float spread = 1e-3f * std::abs(worst) + 1e-3f;
            for (int i = -300; i <= 300; ++i) {
              const float free =
                  worst + static_cast<float>(i) * spread / 100.0f;
              const Vec2f offset =
                  rows ? Vec2f{free, fixed} : Vec2f{fixed, free};
              ASSERT_LT(gaussian_power(q, offset), cutoff)
                  << (rows ? "dy " : "dx ") << fixed << " free offset " << free;
            }
          }
        }
        // Tightness: slightly inside the band the worst pair reaches the
        // cutoff (margin is ~1e-5 of the coefficients for rho <= 0.3).
        const float rho = q.b / std::sqrt(q.a * q.c);
        if (std::abs(rho) <= 0.3f) {
          const float inside = first_skipped_offset(k) * 0.999f;
          const float free = -q.b * inside / along;
          const Vec2f offset = rows ? Vec2f{free, inside} : Vec2f{inside, free};
          EXPECT_GE(gaussian_power(q, offset), cutoff);
        }
      }
    }
  }
}

TEST(PowerBand, NoBandWhereSkippingCouldChangeAResult) {
  const Conic2 good{0.05f, 0.01f, 0.07f};
  const Vec2f mean{10.0f, 10.0f};
  const float cutoff = alpha_cutoff_power(1.0f / 255.0f, 0.8f);
  const auto none = [](const PowerBand& b) {
    return b.x == 0.0f && b.y == 0.0f;
  };
  EXPECT_FALSE(none(power_band(good, mean, cutoff, 32, 32)));
  // Cutoffs with nothing provable: -inf, +inf, NaN, >= 0, subnormal.
  for (const float c : {-kInf, kInf, kNaN, 0.0f, 1.5f, -1e-40f}) {
    EXPECT_TRUE(none(power_band(good, mean, c, 32, 32))) << c;
  }
  // Conics that are degenerate, indefinite or not finite.
  for (const Conic2& q :
       {Conic2{0.05f, 0.05f, 0.05f}, Conic2{0.05f, 0.1f, 0.05f},
        Conic2{0.0f, 0.0f, 0.05f}, Conic2{0.05f, 0.0f, -0.05f},
        Conic2{kNaN, 0.0f, 0.05f}, Conic2{0.05f, kInf, 0.05f},
        Conic2{kInf, 0.0f, kInf}}) {
    EXPECT_TRUE(none(power_band(q, mean, cutoff, 32, 32)));
  }
  // Means that are not finite, and terms that could overflow in the frame.
  for (const Vec2f m :
       {Vec2f{kNaN, 1.0f}, Vec2f{1.0f, kInf}, Vec2f{1e20f, 1.0f}}) {
    EXPECT_TRUE(none(power_band(good, m, cutoff, 32, 32)));
  }
  EXPECT_TRUE(
      none(power_band(Conic2{3e38f, 1e38f, 3e38f}, mean, cutoff, 32, 32)));
}

// --------------------------------------------- Parallel binning golden --

/// Parallel binning must produce the identical TileWorkload — same
/// instances, same ranges, same per-tile depth order — as the serial
/// radix-sort path, for every thread count, tile size and culling mode.
TEST(ParallelSortGolden, MatchesSerialAcrossMatrix) {
  const auto gscene = small_scene(1500);
  const auto cam = test_camera(128, 96);
  const auto splats = preprocess(gscene, cam);
  for (const int tile_size : {8, 16, 32, 64}) {
    TileGrid grid{tile_size, cam.width(), cam.height()};
    for (const CullingMode culling :
         {CullingMode::kBoundingBox, CullingMode::kTightEllipse}) {
      SortStats serial_stats;
      const TileWorkload serial =
          sort_splats(splats, grid, &serial_stats, culling);
      for (int threads = 2; threads <= 8; ++threads) {
        SCOPED_TRACE("tile=" + std::to_string(tile_size) + " culling=" +
                     std::to_string(static_cast<int>(culling)) +
                     " threads=" + std::to_string(threads));
        SortStats parallel_stats;
        const TileWorkload parallel = sort_splats(
            splats, grid, &parallel_stats, culling, 1.0f / 255.0f, threads);
        expect_workloads_equal(serial, parallel);
        EXPECT_EQ(parallel_stats.instances, serial_stats.instances);
        EXPECT_EQ(parallel_stats.splats_in, serial_stats.splats_in);
      }
    }
  }
}

TEST(ParallelSortGolden, MoreThreadsThanSplatsIsSafe) {
  std::vector<Splat2D> splats(3);
  for (std::size_t i = 0; i < splats.size(); ++i) {
    splats[i].mean = {10.0f + 8.0f * static_cast<float>(i), 10.0f};
    splats[i].radius = 3.0f;
    splats[i].depth = 3.0f - static_cast<float>(i);
  }
  TileGrid grid{16, 64, 64};
  const TileWorkload serial = sort_splats(splats, grid);
  const TileWorkload parallel = sort_splats(
      splats, grid, nullptr, CullingMode::kBoundingBox, 1.0f / 255.0f, 8);
  expect_workloads_equal(serial, parallel);
}

TEST(ParallelSortGolden, EmptySplatListYieldsEmptyWorkload) {
  TileGrid grid{16, 64, 64};
  const TileWorkload work = sort_splats(
      {}, grid, nullptr, CullingMode::kBoundingBox, 1.0f / 255.0f, 4);
  EXPECT_TRUE(work.instances.empty());
  ASSERT_EQ(work.ranges.size(), grid.tile_count());
  for (const TileRange& r : work.ranges) EXPECT_EQ(r.size(), 0u);
}

// ------------------------------------------------- Depth validation --

/// depth_key_bits is debug-assert-only now; the user-facing validation
/// happens once at workload build and names the offending splat.
TEST(DepthValidation, NegativeDepthRejectedAtWorkloadBuild) {
  std::vector<Splat2D> splats(2);
  splats[0].mean = {10.0f, 10.0f};
  splats[0].radius = 3.0f;
  splats[0].depth = 1.0f;
  splats[1].mean = {20.0f, 20.0f};
  splats[1].radius = 3.0f;
  splats[1].depth = -2.0f;
  TileGrid grid{16, 64, 64};
  for (const int threads : {1, 4}) {
    try {
      sort_splats(splats, grid, nullptr, CullingMode::kBoundingBox,
                  1.0f / 255.0f, threads);
      FAIL() << "negative depth must be rejected (threads " << threads << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("splat 1"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(duplicate_to_tiles(splats, grid), Error);
  splats[1].depth = 2.0f;
  EXPECT_NO_THROW(sort_splats(splats, grid));
}

}  // namespace
}  // namespace gaurast::pipeline
