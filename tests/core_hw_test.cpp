// Integration tests for the GauRast hardware rasterizer model: functional
// image equality against the software pipelines (the repo's analogue of the
// paper's RTL validation), timing sanity, and configuration errors.

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/pe.hpp"
#include "mesh/primitives.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"

namespace gaurast::core {
namespace {

struct Workbench {
  scene::GaussianScene gscene;
  scene::Camera camera;
  pipeline::GaussianRenderer renderer;
  pipeline::FrameResult frame;

  Workbench(std::uint64_t gaussians, int w, int h, std::uint64_t seed = 42)
      : gscene([&] {
          scene::GeneratorParams params;
          params.gaussian_count = gaussians;
          params.seed = seed;
          return scene::generate_scene(params);
        }()),
        camera(scene::default_camera({}, w, h)),
        renderer(),
        frame(renderer.render(gscene, camera)) {}
};

TEST(HwGaussian, ImageBitExactVsSoftware) {
  Workbench wb(3000, 160, 120);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_EQ(r.image.max_abs_diff(wb.frame.image), 0.0f);
}

TEST(HwGaussian, PairCountsMatchSoftwareStats) {
  Workbench wb(2000, 128, 96);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_EQ(r.pairs_evaluated, wb.frame.raster_stats.pairs_evaluated);
  EXPECT_EQ(r.pairs_blended, wb.frame.raster_stats.pairs_blended);
}

TEST(HwGaussian, MoreModulesNeverSlower) {
  Workbench wb(4000, 160, 120);
  RasterizerConfig one = RasterizerConfig::prototype16();
  RasterizerConfig four = one;
  four.module_count = 4;
  const HwRasterResult r1 = HardwareRasterizer(one).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  const HwRasterResult r4 = HardwareRasterizer(four).rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_LT(r4.timing.makespan_cycles, r1.timing.makespan_cycles);
  EXPECT_EQ(r4.image.max_abs_diff(r1.image), 0.0f);  // timing-independent
}

TEST(HwGaussian, UtilizationWithinBounds) {
  Workbench wb(3000, 160, 120);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_GT(r.utilization(), 0.3);
  EXPECT_LE(r.utilization(), 1.0);
}

TEST(HwGaussian, EmptyWorkloadIsBackgroundAndFast) {
  pipeline::TileGrid grid{16, 64, 48};
  pipeline::TileWorkload work;
  work.grid = grid;
  work.ranges.assign(grid.tile_count(), pipeline::TileRange{});
  pipeline::BlendParams params;
  params.background = {0.3f, 0.2f, 0.1f};
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians({}, work, params);
  EXPECT_EQ(r.pairs_evaluated, 0u);
  EXPECT_EQ(r.timing.makespan_cycles, 0u);
  EXPECT_EQ(r.image.at(10, 10), params.background);
}

TEST(HwGaussian, MismatchedTileSizeThrows) {
  Workbench wb(500, 64, 48);
  RasterizerConfig cfg = RasterizerConfig::prototype16();
  cfg.tile_size = 32;
  const HardwareRasterizer hw(cfg);
  EXPECT_THROW(hw.rasterize_gaussians(wb.frame.splats, wb.frame.workload,
                                      wb.renderer.config().blend),
               Error);
}

TEST(HwGaussian, Fp16CloseButNotBitExact) {
  Workbench wb(2000, 128, 96);
  RasterizerConfig cfg = RasterizerConfig::fp16(16);
  const HardwareRasterizer hw(cfg);
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  const float diff = r.image.max_abs_diff(wb.frame.image);
  EXPECT_GT(diff, 0.0f);
  EXPECT_LT(diff, 0.1f);
  EXPECT_GT(r.image.psnr(wb.frame.image), 30.0);
}

TEST(HwGaussian, CountersPopulated) {
  Workbench wb(1000, 96, 64);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_GT(r.counters.muls, r.pairs_evaluated * 6);
  EXPECT_GT(r.counters.buf_read_bytes, 0u);
  EXPECT_EQ(r.counters.buf_write_bytes,
            r.pairs_evaluated * kPairStateBytes.buf_write_bytes);
  EXPECT_EQ(r.counters.divs, 0u);
}

// ------------------------------------------------------- Golden frames --

/// FNV-1a over the image's float bits.
std::uint64_t image_hash(const Image& image) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Vec3f& px : image.pixels()) {
    for (const float v : {px.x, px.y, px.z}) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

pipeline::BlendParams blend_alpha_min_zero() {
  pipeline::BlendParams p;
  p.alpha_min = 0.0f;
  return p;
}

pipeline::BlendParams blend_tight() {
  pipeline::BlendParams p;
  p.alpha_min = 0.05f;
  p.alpha_max = 0.9f;
  p.transmittance_min = 1e-2f;
  return p;
}

using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;

/// A frame's op counts under the counter names they were recorded with:
/// each non-zero OpCounts field, plus pe.pairs from pairs_evaluated.
CounterMap recorded_counters(const HwRasterResult& r) {
  const OpCounts& c = r.counters;
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"fp32.add", c.adds},
      {"fp32.mul", c.muls},
      {"fp32.div", c.divs},
      {"fp32.exp", c.exps},
      {"fp32.cmp", c.cmps},
      {"buf.read", c.buf_read_bytes},
      {"buf.write", c.buf_write_bytes},
      {"pe.primitives", c.primitives}};
  CounterMap map;
  for (const auto& [name, count] : fields) {
    if (count != 0) map.emplace(name, count);
  }
  map.emplace("pe.pairs", r.pairs_evaluated);
  return map;
}

/// One hardware frame's modeled outputs, recorded from the per-op counting
/// PE walk. Restructuring the hardware model must reproduce every value.
struct GoldenFrame {
  const char* name;
  RasterizerConfig config;
  pipeline::BlendParams blend;
  CounterMap counters;
  std::uint64_t pairs_evaluated;
  std::uint64_t pairs_blended;
  std::size_t tile_loads;
  std::uint64_t tile_pairs;
  std::uint64_t fill_bytes;
  Cycle makespan_cycles;
  Cycle stall_cycles;
  std::uint64_t image_hash;
};

std::vector<GoldenFrame> golden_frames() {
  const RasterizerConfig s300 = RasterizerConfig::scaled300();
  const RasterizerConfig p16 = RasterizerConfig::prototype16();
  const RasterizerConfig h16 = RasterizerConfig::fp16(16);
  const pipeline::BlendParams def;
  const pipeline::BlendParams all = blend_alpha_min_zero();
  const pipeline::BlendParams tight = blend_tight();
  // Counter maps shared by configs whose datapath precision matches.
  const CounterMap fp32_def{
      {"buf.read", 3147500u}, {"buf.write", 3102500u},
      {"fp32.add", 1270232u}, {"fp32.cmp", 881888u},
      {"fp32.exp", 285819u},  {"fp32.mul", 2183859u},
      {"pe.pairs", 310250u},  {"pe.primitives", 1250u}};
  const CounterMap fp32_all{
      {"buf.read", 3147500u}, {"buf.write", 3102500u},
      {"fp32.add", 2384276u}, {"fp32.cmp", 881888u},
      {"fp32.exp", 285819u},  {"fp32.mul", 3576414u},
      {"pe.pairs", 310250u},  {"pe.primitives", 1250u}};
  const CounterMap fp32_tight{
      {"buf.read", 3112020u}, {"buf.write", 3067020u},
      {"fp32.add", 1241008u}, {"fp32.cmp", 871902u},
      {"fp32.exp", 282600u},  {"fp32.mul", 2140562u},
      {"pe.pairs", 306702u},  {"pe.primitives", 1250u}};
  return {
      {"scaled300/default", s300, def, fp32_def, 310250u, 7308u, 18u,
       310250u, 118728u, 4952u, 2265u, 0x62d3149837b315f2u},
      {"scaled300/alpha_min=0", s300, all, fp32_all, 310250u, 285819u, 18u,
       310250u, 118728u, 4952u, 2265u, 0x88b05d7dde4f621du},
      {"scaled300/tight", s300, tight, fp32_tight, 306702u, 3550u, 18u,
       306702u, 118728u, 4860u, 2265u, 0x25481cbe49408ef6u},
      {"prototype16/default", p16, def, fp32_def, 310250u, 7308u, 18u,
       310250u, 118728u, 19723u, 260u, 0x62d3149837b315f2u},
      {"prototype16/alpha_min=0", p16, all, fp32_all, 310250u, 285819u, 18u,
       310250u, 118728u, 19723u, 260u, 0x88b05d7dde4f621du},
      {"prototype16/tight", p16, tight, fp32_tight, 306702u, 3550u, 18u,
       306702u, 118728u, 19502u, 260u, 0x25481cbe49408ef6u},
      {"fp16/default", h16, def,
       CounterMap{{"buf.read", 3125000u}, {"buf.write", 3102500u},
                  {"fp32.add", 1270224u}, {"fp32.cmp", 881888u},
                  {"fp32.exp", 285819u},  {"fp32.mul", 2183849u},
                  {"pe.pairs", 310250u},  {"pe.primitives", 1250u}},
       310250u, 7306u, 18u, 310250u, 59364u, 5161u, 241u,
       0xc438cb873c11ab8bu},
      {"fp16/alpha_min=0", h16, all,
       CounterMap{{"buf.read", 3125000u}, {"buf.write", 3102500u},
                  {"fp32.add", 2384276u}, {"fp32.cmp", 881888u},
                  {"fp32.exp", 285819u},  {"fp32.mul", 3576414u},
                  {"pe.pairs", 310250u},  {"pe.primitives", 1250u}},
       310250u, 285819u, 18u, 310250u, 59364u, 5161u, 241u,
       0x916f6176d2dee78au},
      {"fp16/tight", h16, tight,
       CounterMap{{"buf.read", 3089520u}, {"buf.write", 3067020u},
                  {"fp32.add", 1241008u}, {"fp32.cmp", 871902u},
                  {"fp32.exp", 282600u},  {"fp32.mul", 2140562u},
                  {"pe.pairs", 306702u},  {"pe.primitives", 1250u}},
       306702u, 3550u, 18u, 306702u, 59364u, 5106u, 241u,
       0x3d05becf15bc9fc7u},
  };
}

TEST(HwGaussian, GoldenFramesReproduceRecordedModel) {
  // 72x52 leaves partial tiles on the right and bottom edges.
  Workbench wb(800, 72, 52);
  // Negating every 13th conic makes it negative definite, so those splats'
  // pairs take the power > 0 guard that projected splats never reach.
  std::vector<pipeline::Splat2D> splats = wb.frame.splats;
  for (std::size_t i = 0; i < splats.size(); i += 13) {
    auto& c = splats[i].conic;
    c = {-c.a, -c.b, -c.c};
  }
  for (const GoldenFrame& g : golden_frames()) {
    SCOPED_TRACE(g.name);
    const HwRasterResult r = HardwareRasterizer(g.config).rasterize_gaussians(
        splats, wb.frame.workload, g.blend);
    EXPECT_EQ(recorded_counters(r), g.counters);
    EXPECT_EQ(r.pairs_evaluated, g.pairs_evaluated);
    EXPECT_EQ(r.pairs_blended, g.pairs_blended);
    std::uint64_t tile_pairs = 0, fill_bytes = 0;
    for (const TileLoad& load : r.tile_loads) {
      tile_pairs += load.pairs;
      fill_bytes += load.fill_bytes;
    }
    EXPECT_EQ(r.tile_loads.size(), g.tile_loads);
    EXPECT_EQ(tile_pairs, g.tile_pairs);
    EXPECT_EQ(fill_bytes, g.fill_bytes);
    EXPECT_EQ(r.timing.makespan_cycles, g.makespan_cycles);
    EXPECT_EQ(r.timing.stall_cycles, g.stall_cycles);
    EXPECT_EQ(image_hash(r.image), g.image_hash);
    if (g.config.precision == Precision::kFp32) {
      const Image reference =
          pipeline::rasterize(splats, wb.frame.workload, g.blend);
      ASSERT_EQ(r.image.pixels().size(), reference.pixels().size());
      EXPECT_EQ(std::memcmp(r.image.pixels().data(),
                            reference.pixels().data(),
                            reference.pixels().size() * sizeof(Vec3f)),
                0);
    }
  }
}

// ----------------------------------------------------------- Triangles --

TEST(HwTriangle, ImageBitExactVsReferenceRenderer) {
  const scene::Camera cam = scene::default_camera({}, 160, 120);
  const mesh::TriangleMesh sphere = mesh::make_sphere(16, 24, 2.0f);
  const Vec3f bg{0.05f, 0.05f, 0.08f};
  const mesh::RasterOutput sw = mesh::render_mesh(sphere, cam, bg);
  const auto prims = mesh::build_primitives(sphere, cam);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_triangles(prims, 160, 120, bg);
  EXPECT_EQ(r.image.max_abs_diff(sw.color), 0.0f);
}

TEST(HwTriangle, WorksAcrossMeshes) {
  const scene::Camera cam = scene::default_camera({}, 128, 96);
  const Vec3f bg{0, 0, 0};
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  for (const mesh::TriangleMesh& m :
       {mesh::make_cube(), mesh::make_torus(12, 8, 2.0f, 0.6f),
        mesh::make_terrain(16, 10.0f, 1.0f, 3)}) {
    const mesh::RasterOutput sw = mesh::render_mesh(m, cam, bg);
    const auto prims = mesh::build_primitives(m, cam);
    const HwRasterResult r =
        hw.rasterize_triangles(prims, cam.width(), cam.height(), bg);
    EXPECT_EQ(r.image.max_abs_diff(sw.color), 0.0f);
  }
}

TEST(HwTriangle, EmptyPrimitiveStreamGivesBackground) {
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const Vec3f bg{0.5f, 0.6f, 0.7f};
  const HwRasterResult r = hw.rasterize_triangles({}, 64, 48, bg);
  EXPECT_EQ(r.image.at(32, 24), bg);
  EXPECT_EQ(r.pairs_evaluated, 0u);
}

TEST(HwTriangle, DividerCountMatchesPrimitiveCount) {
  const scene::Camera cam = scene::default_camera({}, 96, 72);
  const auto prims = mesh::build_primitives(mesh::make_cube(), cam);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r =
      hw.rasterize_triangles(prims, 96, 72, {0, 0, 0});
  EXPECT_EQ(r.counters.divs, prims.size());
  EXPECT_EQ(r.counters.exps, 0u);
}

TEST(HwTriangle, OffscreenLeftOrAboveBinsToNoTile) {
  // Wholly left of / above the frame by less than one tile: truncating
  // toward zero would bin each into tile column / row 0.
  const auto make_tri = [](Vec2f p0, Vec2f p1, Vec2f p2) {
    mesh::ScreenTriangle tri;
    tri.p0 = p0;
    tri.p1 = p1;
    tri.p2 = p2;
    tri.inv_double_area = 1.0f / mesh::edge_function(p0, p1, p2);
    tri.z0 = tri.z1 = tri.z2 = 1.0f;
    tri.c0 = tri.c1 = tri.c2 = {1, 1, 1};
    return tri;
  };
  const Vec3f bg{0.5f, 0.6f, 0.7f};
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  for (const mesh::ScreenTriangle& tri :
       {make_tri({-12, 10}, {-2, 10}, {-7, 20}),
        make_tri({10, -12}, {20, -2}, {10, -2})}) {
    const HwRasterResult r = hw.rasterize_triangles({tri}, 64, 48, bg);
    EXPECT_EQ(r.pairs_evaluated, 0u);
    EXPECT_TRUE(r.tile_loads.empty());
    EXPECT_EQ(r.counters.primitives, 0u);
    EXPECT_EQ(r.counters, OpCounts{});  // no setup for an unbinned triangle
    EXPECT_EQ(r.timing.makespan_cycles, 0u);
    EXPECT_EQ(r.image.max_abs_diff(Image(64, 48, bg)), 0.0f);
  }
}

TEST(HwTriangle, InvalidDimensionsThrow) {
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  EXPECT_THROW(hw.rasterize_triangles({}, 0, 48, {0, 0, 0}), Error);
}

// ------------------------------------------------------ Config presets --

TEST(Config, PresetsValidateAndScale) {
  EXPECT_NO_THROW(RasterizerConfig::prototype16().validate());
  EXPECT_EQ(RasterizerConfig::prototype16().total_pes(), 16);
  EXPECT_EQ(RasterizerConfig::scaled240().total_pes(), 240);
  EXPECT_EQ(RasterizerConfig::scaled300().total_pes(), 300);
  EXPECT_NEAR(RasterizerConfig::scaled300().peak_pairs_per_second(), 300e9,
              1e6);
}

TEST(Config, Fp16QuadruplesPairRate) {
  EXPECT_EQ(RasterizerConfig::prototype16().pairs_per_cycle_per_pe(), 1);
  EXPECT_EQ(RasterizerConfig::fp16(16).pairs_per_cycle_per_pe(), 4);
}

TEST(Config, PrimitiveBytesTrackPrecision) {
  EXPECT_EQ(gaussian_primitive_bytes(Precision::kFp32), 36u);
  EXPECT_EQ(gaussian_primitive_bytes(Precision::kFp16), 18u);
  EXPECT_EQ(pixel_state_bytes(Precision::kFp32), 16u);
}

TEST(Config, ValidationCatchesNonsense) {
  RasterizerConfig c = RasterizerConfig::prototype16();
  c.clock_ghz = -1.0;
  EXPECT_THROW(c.validate(), Error);
  c = RasterizerConfig::prototype16();
  c.module_count = 0;
  EXPECT_THROW(c.validate(), Error);
  c = RasterizerConfig::prototype16();
  c.pipeline_depth = 0;
  EXPECT_THROW(c.validate(), Error);
}

/// Parameterized image-equality sweep across scene sizes, resolutions and
/// viewpoints — the broad version of the paper's functional validation.
struct EqualityCase {
  std::uint64_t gaussians;
  int width;
  int height;
  std::uint64_t seed;
};

class HwEqualityTest : public ::testing::TestWithParam<EqualityCase> {};

TEST_P(HwEqualityTest, HardwareMatchesSoftwareExactly) {
  const EqualityCase& ec = GetParam();
  Workbench wb(ec.gaussians, ec.width, ec.height, ec.seed);
  const HardwareRasterizer hw(RasterizerConfig::prototype16());
  const HwRasterResult r = hw.rasterize_gaussians(
      wb.frame.splats, wb.frame.workload, wb.renderer.config().blend);
  EXPECT_EQ(r.image.max_abs_diff(wb.frame.image), 0.0f);
  EXPECT_EQ(r.pairs_evaluated, wb.frame.raster_stats.pairs_evaluated);
}

INSTANTIATE_TEST_SUITE_P(
    ScenesAndResolutions, HwEqualityTest,
    ::testing::Values(EqualityCase{500, 64, 48, 1},
                      EqualityCase{1000, 96, 96, 2},
                      EqualityCase{2000, 160, 90, 3},
                      EqualityCase{4000, 128, 128, 4},
                      EqualityCase{8000, 200, 150, 5},
                      EqualityCase{100, 48, 64, 6},
                      EqualityCase{1, 32, 32, 7}));

}  // namespace
}  // namespace gaurast::core
