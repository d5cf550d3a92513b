// Tests for the 3DGS software pipeline: preprocessing, sorting and
// rasterization (the reference implementation the hardware model must match).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"

namespace gaurast::pipeline {
namespace {

scene::Camera test_camera(int w = 128, int h = 96) {
  scene::GeneratorParams params;
  return scene::default_camera(params, w, h);
}

scene::GaussianScene small_scene(std::uint64_t count = 2000,
                                 std::uint64_t seed = 42) {
  scene::GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  return scene::generate_scene(params);
}

std::vector<scene::Camera> test_cameras(int count, int width = 64,
                                        int height = 48) {
  return scene::orbit_path(width, height, 0.9f, {0.0f, 1.2f, 0.0f}, 8.8f,
                           2.4f, count);
}

// ---------------------------------------------------------- Preprocess --

TEST(Preprocess, AccountsForEveryGaussian) {
  const auto gscene = small_scene();
  PreprocessStats stats;
  const auto splats = preprocess(gscene, test_camera(), &stats);
  EXPECT_EQ(stats.gaussians_in, gscene.size());
  EXPECT_EQ(stats.splats_out, splats.size());
  EXPECT_EQ(stats.gaussians_in,
            stats.splats_out + stats.culled_frustum + stats.culled_degenerate);
  EXPECT_GT(splats.size(), gscene.size() / 2);  // most survive
}

TEST(Preprocess, SplatInvariantsHold) {
  const auto splats = preprocess(small_scene(), test_camera());
  for (const Splat2D& s : splats) {
    EXPECT_GT(s.depth, 0.0f);
    EXPECT_GT(s.radius, 0.0f);
    EXPECT_GE(s.opacity, 0.0f);
    EXPECT_LE(s.opacity, 1.0f);
    EXPECT_GE(s.color.x, 0.0f);
    // Conic must be positive definite.
    EXPECT_GT(s.conic.a, 0.0f);
    EXPECT_GT(s.conic.a * s.conic.c - s.conic.b * s.conic.b, 0.0f);
  }
}

TEST(Preprocess, BehindCameraIsCulled) {
  scene::GaussianScene gscene(0);
  scene::Gaussian3D g;
  g.scale = {0.1f, 0.1f, 0.1f};
  g.opacity = 0.5f;
  const scene::Camera cam(64, 64, 0.9f, {0, 0, -5}, {0, 0, 0});
  g.position = {0, 0, -20};  // behind the camera
  gscene.add(g);
  PreprocessStats stats;
  const auto splats = preprocess(gscene, cam, &stats);
  EXPECT_TRUE(splats.empty());
  EXPECT_EQ(stats.culled_frustum, 1u);
}

TEST(Preprocess, EmptySceneYieldsNoSplats) {
  const auto splats = preprocess(scene::GaussianScene(3), test_camera());
  EXPECT_TRUE(splats.empty());
}

TEST(Preprocess, ByteIdenticalAtEveryThreadCount) {
  // Enough Gaussians for one chunk per core; the orbit camera culls some
  // by the frustum, so every chunk's counts feed the joined stats.
  const auto gscene = small_scene(3980, 9);
  const scene::Camera cam = test_cameras(3)[1];
  const auto bits = [](const std::vector<Splat2D>& splats) {
    std::vector<std::uint32_t> out;
    for (const Splat2D& s : splats) {
      for (const float f : {s.mean.x, s.mean.y, s.conic.a, s.conic.b,
                            s.conic.c, s.opacity, s.color.x, s.color.y,
                            s.color.z, s.depth, s.radius}) {
        out.push_back(std::bit_cast<std::uint32_t>(f));
      }
      out.push_back(s.source_id);
    }
    return out;
  };
  PreprocessStats serial_stats;
  const auto serial = preprocess(gscene, cam, &serial_stats);
  ASSERT_GT(serial_stats.culled_frustum, 0u);
  for (int threads = 1; threads <= 4; ++threads) {
    PreprocessStats stats;
    const auto splats = preprocess(gscene, cam, &stats, nullptr, threads);
    EXPECT_EQ(bits(splats), bits(serial)) << threads << " threads";
    EXPECT_EQ(stats.gaussians_in, serial_stats.gaussians_in);
    EXPECT_EQ(stats.culled_frustum, serial_stats.culled_frustum);
    EXPECT_EQ(stats.culled_degenerate, serial_stats.culled_degenerate);
    EXPECT_EQ(stats.splats_out, serial_stats.splats_out);
  }
}

TEST(ProjectGaussian, DepthIsViewZ) {
  scene::GaussianScene gscene(0);
  scene::Gaussian3D g;
  g.position = {0, 0, 0};
  g.scale = {0.1f, 0.1f, 0.1f};
  g.opacity = 0.5f;
  gscene.add(g);
  const scene::Camera cam(64, 64, 0.9f, {0, 0, -5}, {0, 0, 0});
  Splat2D s;
  ASSERT_EQ(project_gaussian(gscene, 0, cam, s), ProjectOutcome::kVisible);
  EXPECT_NEAR(s.depth, 5.0f, 1e-3f);
  EXPECT_NEAR(s.mean.x, 32.0f, 0.6f);
}

// ---------------------------------------------------------------- Sort --

/// A splat whose 3-sigma square is `radius` pixels around (x, y).
Splat2D sort_splat(float x, float y, float radius, float depth) {
  Splat2D s;
  s.mean = {x, y};
  s.radius = radius;
  s.depth = depth;
  return s;
}

/// Splat indices of tile `tile`'s sorted list, front to back.
std::vector<std::uint32_t> tile_splats(const TileWorkload& work,
                                       std::uint32_t tile) {
  std::vector<std::uint32_t> out;
  const TileRange r = work.ranges[tile];
  for (std::uint32_t i = r.begin; i < r.end; ++i) {
    out.push_back(work.instances[i].splat_index);
  }
  return out;
}

TEST(DepthKey, MonotoneInDepth) {
  Pcg32 rng(3);
  for (int i = 0; i < 200; ++i) {
    const float a = static_cast<float>(rng.lognormal(0.0, 2.0));
    const float b = static_cast<float>(rng.lognormal(0.0, 2.0));
    if (a < b) {
      EXPECT_LT(depth_key_bits(a), depth_key_bits(b));
    }
  }
  // Negative depths are rejected once at workload build (see
  // validate_splat_depths / raster_fast_test), not per key in the hot loop.
  const std::vector<Splat2D> bad = {sort_splat(8.0f, 8.0f, 2.0f, -1.0f)};
  EXPECT_THROW(sort_splats(bad, TileGrid{16, 64, 64}), Error);
}

TEST(Duplicate, SingleTileSplat) {
  const std::vector<Splat2D> splats = {sort_splat(24.0f, 24.0f, 2.0f, 1.0f)};
  TileGrid grid{16, 64, 64};
  const TileWorkload work = sort_splats(splats, grid);
  ASSERT_EQ(work.instances.size(), 1u);
  EXPECT_EQ(work.instances[0].tile(), 1u * 4u + 1u);
  EXPECT_EQ(work.ranges[1u * 4u + 1u].size(), 1u);
}

TEST(Duplicate, SplatSpanningFourTiles) {
  // On the 2x2 tile corner.
  const std::vector<Splat2D> splats = {sort_splat(16.0f, 16.0f, 3.0f, 1.0f)};
  TileGrid grid{16, 64, 64};
  const TileWorkload work = sort_splats(splats, grid);
  ASSERT_EQ(work.instances.size(), 4u);
  for (const std::uint32_t tile : {0u, 1u, 4u, 5u}) {
    EXPECT_EQ(work.ranges[tile].size(), 1u) << "tile " << tile;
  }
}

TEST(Duplicate, OffscreenSplatDropped) {
  const std::vector<Splat2D> splats = {
      sort_splat(-100.0f, -100.0f, 3.0f, 1.0f)};
  TileGrid grid{16, 64, 64};
  const TileWorkload work = sort_splats(splats, grid);
  EXPECT_TRUE(work.instances.empty());
  for (const TileRange& r : work.ranges) EXPECT_EQ(r.size(), 0u);
}

/// Each tile's list matches std::stable_sort by depth key, with the depths
/// drawn from a small set so ties are common: 600 splats in one tile take
/// the counting-sort branch, 20 in another the insertion-sort branch.
TEST(RadixSort, MatchesStdStableSort) {
  Pcg32 rng(9);
  std::vector<Splat2D> splats;
  for (std::uint32_t i = 0; i < 620; ++i) {
    const float x = i < 600 ? 8.0f : 24.0f;
    splats.push_back(sort_splat(x, 8.0f, 2.0f,
                                0.5f + 0.25f * static_cast<float>(rng.next_below(64))));
  }
  const TileWorkload work = sort_splats(splats, TileGrid{16, 32, 16});
  for (const std::uint32_t tile : {0u, 1u}) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < splats.size(); ++i) {
      if ((i < 600) == (tile == 0)) expected.push_back(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return depth_key_bits(splats[a].depth) <
                              depth_key_bits(splats[b].depth);
                     });
    EXPECT_EQ(tile_splats(work, tile), expected) << "tile " << tile;
  }
}

TEST(RadixSort, StableOnEqualKeys) {
  std::vector<Splat2D> splats(100, sort_splat(8.0f, 8.0f, 2.0f, 1.0f));
  const TileWorkload work = sort_splats(splats, TileGrid{16, 16, 16});
  const std::vector<std::uint32_t> order = tile_splats(work, 0);
  ASSERT_EQ(order.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

/// sort_splats against a brute-force oracle: every splat duplicated into
/// every tile its clamped bounding square touches, in splat order, then
/// std::stable_sort on the (tile, depth) key, at 1-4 threads.
TEST(SortSplats, MatchesBruteForceOracle) {
  Pcg32 rng(17);
  std::vector<Splat2D> splats;
  for (int i = 0; i < 700; ++i) {
    // Means reach past every edge so clamping and off-screen drops occur;
    // depths repeat so ties occur.
    splats.push_back(sort_splat(
        static_cast<float>(rng.uniform(-20.0, 120.0)),
        static_cast<float>(rng.uniform(-20.0, 90.0)),
        static_cast<float>(rng.uniform(0.5, 30.0)),
        static_cast<float>(1 + rng.next_below(40)) * 0.125f));
  }
  const TileGrid grid{16, 100, 70};  // partial edge tiles on both axes
  std::vector<TileInstance> expected;
  for (std::uint32_t s = 0; s < splats.size(); ++s) {
    const Splat2D& sp = splats[s];
    for (int ty = 0; ty < grid.tiles_y(); ++ty) {
      for (int tx = 0; tx < grid.tiles_x(); ++tx) {
        const float x0 = static_cast<float>(tx * grid.tile_size);
        const float y0 = static_cast<float>(ty * grid.tile_size);
        const float ts = static_cast<float>(grid.tile_size);
        if (sp.mean.x + sp.radius < x0 || sp.mean.x - sp.radius >= x0 + ts ||
            sp.mean.y + sp.radius < y0 || sp.mean.y - sp.radius >= y0 + ts) {
          continue;
        }
        const auto tile = static_cast<std::uint64_t>(ty * grid.tiles_x() + tx);
        expected.push_back(
            TileInstance{(tile << 32) | depth_key_bits(sp.depth), s});
      }
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TileInstance& a, const TileInstance& b) {
                     return a.key < b.key;
                   });
  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TileWorkload work =
        sort_splats(splats, grid, nullptr, CullingMode::kBoundingBox,
                    1.0f / 255.0f, threads);
    ASSERT_EQ(work.instances.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(work.instances[i].key, expected[i].key) << "instance " << i;
      EXPECT_EQ(work.instances[i].splat_index, expected[i].splat_index)
          << "instance " << i;
    }
    ASSERT_EQ(work.ranges.size(), grid.tile_count());
    for (std::uint32_t t = 0; t < grid.tile_count(); ++t) {
      const TileRange r = work.ranges[t];
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        EXPECT_EQ(work.instances[i].tile(), t);
      }
    }
  }
}

/// Equal depths keep splat order in both per-tile sort branches: 40
/// same-depth splats in tile 0 (counting sort) and 10 in tile 1
/// (insertion sort), interleaved in splat order and split across threads.
TEST(SortSplats, EqualDepthsKeepSplatOrderInBothTileSortBranches) {
  std::vector<Splat2D> splats;
  std::vector<std::uint32_t> in_tile0, in_tile1;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const bool second = i % 5 == 4;
    (second ? in_tile1 : in_tile0).push_back(i);
    splats.push_back(sort_splat(second ? 24.0f : 8.0f, 8.0f, 2.0f, 2.0f));
  }
  ASSERT_GE(in_tile0.size(), 32u);
  ASSERT_LT(in_tile1.size(), 32u);
  for (int threads = 1; threads <= 4; ++threads) {
    const TileWorkload work =
        sort_splats(splats, TileGrid{16, 32, 16}, nullptr,
                    CullingMode::kBoundingBox, 1.0f / 255.0f, threads);
    EXPECT_EQ(tile_splats(work, 0), in_tile0) << "threads " << threads;
    EXPECT_EQ(tile_splats(work, 1), in_tile1) << "threads " << threads;
  }
}

TEST(SortSplats, RangesPartitionInstances) {
  const auto gscene = small_scene();
  const auto cam = test_camera();
  const auto splats = preprocess(gscene, cam);
  TileGrid grid{16, cam.width(), cam.height()};
  SortStats stats;
  const TileWorkload work = sort_splats(splats, grid, &stats);
  EXPECT_EQ(stats.instances, work.instances.size());
  EXPECT_GT(stats.instances_per_splat, 1.0);

  std::uint64_t covered = 0;
  for (std::uint32_t t = 0; t < grid.tile_count(); ++t) {
    const TileRange r = work.ranges[t];
    covered += r.size();
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      EXPECT_EQ(work.instances[i].tile(), t);
      if (i > r.begin) {
        EXPECT_LE(work.instances[i - 1].key, work.instances[i].key);
      }
    }
  }
  EXPECT_EQ(covered, work.instances.size());
}

TEST(SortSplats, DepthOrderedWithinTile) {
  const auto gscene = small_scene();
  const auto cam = test_camera();
  const auto splats = preprocess(gscene, cam);
  TileGrid grid{16, cam.width(), cam.height()};
  const TileWorkload work = sort_splats(splats, grid);
  for (std::uint32_t t = 0; t < grid.tile_count(); ++t) {
    const TileRange r = work.ranges[t];
    for (std::uint32_t i = r.begin + 1; i < r.end; ++i) {
      EXPECT_LE(splats[work.instances[i - 1].splat_index].depth,
                splats[work.instances[i].splat_index].depth);
    }
  }
}

// ----------------------------------------------------------- Rasterize --

TEST(EvalSplatAlpha, PeaksAtCenterAndClamps) {
  Splat2D s;
  s.mean = {8, 8};
  s.conic = {0.5f, 0.0f, 0.5f};
  s.opacity = 1.0f;
  BlendParams params;
  const float center = eval_splat_alpha(s, {8, 8}, params);
  EXPECT_FLOAT_EQ(center, params.alpha_max);  // clamped from 1.0
  EXPECT_LT(eval_splat_alpha(s, {10, 8}, params), center);
}

TEST(Accumulate, TransmittanceMonotoneDecreasing) {
  PixelBlendState state;
  BlendParams params;
  float last_t = state.transmittance;
  for (int i = 0; i < 50; ++i) {
    accumulate(state, 0.2f, {0.5f, 0.5f, 0.5f}, params);
    EXPECT_LE(state.transmittance, last_t);
    last_t = state.transmittance;
  }
  EXPECT_LT(state.transmittance, params.transmittance_min);
}

TEST(Accumulate, SkipsBelowThreshold) {
  PixelBlendState state;
  BlendParams params;
  EXPECT_FALSE(accumulate(state, 0.001f, {1, 1, 1}, params));
  EXPECT_EQ(state.transmittance, 1.0f);
}

TEST(Accumulate, ColorBoundedByUnityInput) {
  PixelBlendState state;
  BlendParams params;
  Pcg32 rng(5);
  for (int i = 0; i < 200; ++i) {
    accumulate(state, static_cast<float>(rng.uniform(0.01, 0.99)),
               {1.0f, 1.0f, 1.0f}, params);
  }
  EXPECT_LE(state.accumulated.x, 1.0f + 1e-4f);
}

TEST(Rasterize, EmptyWorkloadGivesBackground) {
  TileGrid grid{16, 32, 32};
  TileWorkload work;
  work.grid = grid;
  work.ranges.assign(grid.tile_count(), TileRange{});
  BlendParams params;
  params.background = {0.1f, 0.2f, 0.3f};
  const Image img = rasterize({}, work, params);
  EXPECT_EQ(img.at(16, 16), params.background);
}

TEST(Rasterize, OpaqueSplatDominatesItsCenter) {
  std::vector<Splat2D> splats(1);
  splats[0].mean = {16.5f, 16.5f};
  splats[0].conic = {0.02f, 0.0f, 0.02f};
  splats[0].opacity = 0.99f;
  splats[0].color = {1.0f, 0.0f, 0.0f};
  splats[0].depth = 1.0f;
  splats[0].radius = 20.0f;
  TileGrid grid{16, 48, 48};
  const TileWorkload work = sort_splats(splats, grid);
  BlendParams params;
  RasterStats stats;
  const Image img = rasterize(splats, work, params, &stats);
  EXPECT_GT(img.at(16, 16).x, 0.9f);
  EXPECT_LT(img.at(16, 16).y, 0.05f);
  EXPECT_GT(stats.pairs_evaluated, 0u);
}

TEST(Rasterize, FrontSplatOccludesBack) {
  // Two co-located opaque splats; the nearer one must dominate.
  std::vector<Splat2D> splats(2);
  for (auto& s : splats) {
    s.mean = {24.0f, 24.0f};
    s.conic = {0.05f, 0.0f, 0.05f};
    s.opacity = 0.95f;
    s.radius = 15.0f;
  }
  splats[0].color = {0, 1, 0};
  splats[0].depth = 5.0f;  // far, green
  splats[1].color = {1, 0, 0};
  splats[1].depth = 1.0f;  // near, red
  TileGrid grid{16, 48, 48};
  const TileWorkload work = sort_splats(splats, grid);
  const Image img = rasterize(splats, work, BlendParams{});
  EXPECT_GT(img.at(24, 24).x, img.at(24, 24).y * 5.0f);
}

TEST(Rasterize, EarlyTerminationReducesPairs) {
  // A stack of opaque splats: pixels terminate early, so the evaluated pair
  // count must be far below instances x pixels.
  std::vector<Splat2D> splats(50);
  for (std::size_t i = 0; i < splats.size(); ++i) {
    splats[i].mean = {24.0f, 24.0f};
    splats[i].conic = {0.01f, 0.0f, 0.01f};
    splats[i].opacity = 0.95f;
    splats[i].radius = 24.0f;
    splats[i].depth = 1.0f + static_cast<float>(i);
    splats[i].color = {0.5f, 0.5f, 0.5f};
  }
  TileGrid grid{16, 48, 48};
  const TileWorkload work = sort_splats(splats, grid);
  RasterStats stats;
  rasterize(splats, work, BlendParams{}, &stats);
  EXPECT_GT(stats.pixels_terminated, 0u);
  // Re-run with early termination disabled: strictly more work.
  BlendParams no_term;
  no_term.transmittance_min = 0.0f;  // T never drops below zero
  RasterStats full;
  rasterize(splats, work, no_term, &full);
  EXPECT_LT(stats.pairs_evaluated, full.pairs_evaluated);
  // Pixels under the opaque stack terminate after a handful of splats.
  EXPECT_GT(full.pairs_evaluated - stats.pairs_evaluated,
            full.pairs_evaluated / 10);
}

TEST(Rasterize, MultithreadedBitExactAndStatsMatch) {
  const auto gscene = small_scene(2500);
  const auto cam = test_camera(160, 120);
  const GaussianRenderer renderer;
  const FrameResult prep = renderer.prepare(gscene, cam);
  RasterStats serial_stats, parallel_stats;
  const Image serial = rasterize(prep.splats, prep.workload,
                                 renderer.config().blend, &serial_stats, 1);
  const Image parallel = rasterize(prep.splats, prep.workload,
                                   renderer.config().blend, &parallel_stats, 4);
  EXPECT_EQ(parallel.max_abs_diff(serial), 0.0f);
  EXPECT_EQ(parallel_stats.pairs_evaluated, serial_stats.pairs_evaluated);
  EXPECT_EQ(parallel_stats.pairs_blended, serial_stats.pairs_blended);
  EXPECT_EQ(parallel_stats.pixels_terminated, serial_stats.pixels_terminated);
}

TEST(Rasterize, ThreadCountBeyondTilesIsSafe) {
  const auto gscene = small_scene(300);
  const scene::Camera cam(32, 32, 0.9f, {0, 1.5f, -9}, {0, 0, 0});
  const GaussianRenderer renderer;
  const FrameResult prep = renderer.prepare(gscene, cam);
  EXPECT_NO_THROW(rasterize(prep.splats, prep.workload,
                            renderer.config().blend, nullptr, 64));
}

TEST(Rasterize, InvalidThreadCountThrows) {
  TileGrid grid{16, 32, 32};
  TileWorkload work;
  work.grid = grid;
  work.ranges.assign(grid.tile_count(), TileRange{});
  EXPECT_THROW(rasterize({}, work, BlendParams{}, nullptr, 0), Error);
}

// ------------------------------------------------------------ Renderer --

TEST(Renderer, EndToEndProducesContent) {
  const GaussianRenderer renderer;
  const FrameResult frame = renderer.render(small_scene(), test_camera());
  EXPECT_GT(frame.image.mean_luminance(), 0.01);
  EXPECT_GT(frame.pairs_per_pixel(), 1.0);
}

TEST(Renderer, DeterministicAcrossRuns) {
  const GaussianRenderer renderer;
  const auto gscene = small_scene(800);
  const auto cam = test_camera();
  const FrameResult a = renderer.render(gscene, cam);
  const FrameResult b = renderer.render(gscene, cam);
  EXPECT_EQ(a.image.max_abs_diff(b.image), 0.0f);
}

TEST(Renderer, PrepareMatchesRenderWorkload) {
  const GaussianRenderer renderer;
  const auto gscene = small_scene(800);
  const auto cam = test_camera();
  const FrameResult prep = renderer.prepare(gscene, cam);
  const FrameResult full = renderer.render(gscene, cam);
  EXPECT_EQ(prep.splats.size(), full.splats.size());
  EXPECT_EQ(prep.workload.instance_count(), full.workload.instance_count());
}

TEST(Renderer, RejectsSillyTileSize) {
  RendererConfig config;
  config.tile_size = 0;
  EXPECT_THROW(GaussianRenderer{config}, Error);
}

TEST(ScenePrecompute, RenderingWithPrecomputeIsBitIdentical) {
  const scene::GaussianScene scene = small_scene(500, 3);
  const scene::Camera camera = test_cameras(1)[0];
  for (const pipeline::RasterKernel kernel :
       {pipeline::RasterKernel::kReference, pipeline::RasterKernel::kFast}) {
    pipeline::RendererConfig config;
    config.kernel = kernel;
    const pipeline::GaussianRenderer renderer(config);
    const pipeline::ScenePrecompute pre =
        pipeline::precompute_scene(scene, config.blend.alpha_min);
    EXPECT_EQ(pre.cov3d.size(), scene.size());
    EXPECT_EQ(pre.raster_cutoff.size(), scene.size());
    const pipeline::FrameResult plain = renderer.render(scene, camera);
    const pipeline::FrameResult reused = renderer.render(scene, camera, &pre);
    EXPECT_EQ(plain.image.max_abs_diff(reused.image), 0.0f)
        << pipeline::to_string(kernel);
    EXPECT_EQ(plain.raster_stats.pairs_evaluated,
              reused.raster_stats.pairs_evaluated);
  }
}

/// Parameterized sweep: blending invariants hold across opacity regimes.
class BlendSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BlendSweepTest, FinalTransmittanceInUnitInterval) {
  const double max_opacity = GetParam();
  scene::GeneratorParams params;
  params.gaussian_count = 600;
  params.opacity_alpha = 2.0;
  params.opacity_beta = 2.0 / max_opacity;
  const auto gscene = scene::generate_scene(params);
  const GaussianRenderer renderer;
  const FrameResult frame = renderer.render(gscene, test_camera(64, 48));
  for (const Vec3f& px : frame.image.pixels()) {
    EXPECT_GE(px.x, 0.0f);
    EXPECT_TRUE(std::isfinite(px.x));
    EXPECT_TRUE(std::isfinite(px.y));
    EXPECT_TRUE(std::isfinite(px.z));
  }
}

INSTANTIATE_TEST_SUITE_P(OpacityRegimes, BlendSweepTest,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0, 6.0));

}  // namespace
}  // namespace gaurast::pipeline
