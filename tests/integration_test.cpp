// Cross-module integration tests: the full 3DGS frame path through software
// and hardware models, workload-statistics consistency between rendered
// synthetic scenes and profiles, Mini-Splatting pruning effects, and the
// CUDA-collaborative end-to-end flow.

#include <gtest/gtest.h>

#include "core/hw_rasterizer.hpp"
#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "mesh/primitives.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"
#include "scene/ply_io.hpp"

namespace gaurast {
namespace {

TEST(Integration, FullFramePathSoftwareVsHardware) {
  // Generate -> save -> load -> render -> hardware Step 3 -> images equal.
  scene::GeneratorParams params;
  params.gaussian_count = 3000;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const std::string path = ::testing::TempDir() + "/integration_scene.ply";
  scene::save_ply(gscene, path);
  const scene::GaussianScene loaded = scene::load_ply(path);

  const scene::Camera camera = scene::default_camera(params, 192, 144);
  const pipeline::GaussianRenderer renderer;
  const pipeline::FrameResult frame = renderer.render(loaded, camera);

  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
  const core::HwRasterResult hwres = hw.rasterize_gaussians(
      frame.splats, frame.workload, renderer.config().blend);
  EXPECT_EQ(hwres.image.max_abs_diff(frame.image), 0.0f);
  EXPECT_GT(hwres.timing.makespan_cycles, 0u);
  std::remove(path.c_str());
}

TEST(Integration, MultiViewpointConsistency) {
  scene::GeneratorParams params;
  params.gaussian_count = 1500;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const auto cams = scene::orbit_path(96, 72, 0.9f, {0, 1, 0}, 9.0f, 3.0f, 5);
  const pipeline::GaussianRenderer renderer;
  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
  for (const scene::Camera& cam : cams) {
    const pipeline::FrameResult frame = renderer.render(gscene, cam);
    const core::HwRasterResult hwres = hw.rasterize_gaussians(
        frame.splats, frame.workload, renderer.config().blend);
    EXPECT_EQ(hwres.image.max_abs_diff(frame.image), 0.0f);
  }
}

TEST(Integration, PrunedSceneShrinksWorkloadButKeepsContent) {
  scene::GeneratorParams params;
  params.gaussian_count = 5000;
  const scene::GaussianScene full = scene::generate_scene(params);
  const scene::GaussianScene mini = full.pruned(full.size() / 10);

  const scene::Camera camera = scene::default_camera(params, 128, 96);
  const pipeline::GaussianRenderer renderer;
  const pipeline::FrameResult f_full = renderer.render(full, camera);
  const pipeline::FrameResult f_mini = renderer.render(mini, camera);

  // Mini-Splatting effect: far fewer pairs, image still has content.
  EXPECT_LT(f_mini.raster_stats.pairs_evaluated,
            f_full.raster_stats.pairs_evaluated);
  EXPECT_GT(f_mini.image.mean_luminance(), 0.005);
}

TEST(Integration, HardwareSpeedupGrowsWithWorkload) {
  // A denser scene keeps the PE array busier relative to fixed overheads.
  const scene::Camera camera = scene::default_camera({}, 128, 96);
  const pipeline::GaussianRenderer renderer;
  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
  double util_small = 0.0, util_large = 0.0;
  for (const std::uint64_t count : {300u, 6000u}) {
    scene::GeneratorParams params;
    params.gaussian_count = count;
    const scene::GaussianScene gscene = scene::generate_scene(params);
    const pipeline::FrameResult frame = renderer.render(gscene, camera);
    const core::HwRasterResult r = hw.rasterize_gaussians(
        frame.splats, frame.workload, renderer.config().blend);
    (count == 300u ? util_small : util_large) = r.utilization();
  }
  EXPECT_GT(util_large, util_small);
}

TEST(Integration, MeasuredBlendFractionInModeledBand) {
  // The statistical energy model assumes kBlendedFraction of evaluated
  // pairs complete the blend datapath; rendered synthetic scenes must land
  // in the band that assumption was drawn from (tile-based evaluation
  // rejects most pairs of small splats at the alpha threshold).
  scene::GeneratorParams params;
  params.gaussian_count = 8000;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const pipeline::GaussianRenderer renderer;
  const pipeline::FrameResult frame =
      renderer.render(gscene, scene::default_camera(params, 160, 120));
  const double measured =
      static_cast<double>(frame.raster_stats.pairs_blended) /
      static_cast<double>(frame.raster_stats.pairs_evaluated);
  EXPECT_GT(measured, 0.005);
  EXPECT_LT(measured, 0.5);
}

TEST(Integration, GeneratorDuplicationTracksProfileKnob) {
  // The generator sizes splats from the profile's tile-duplication factor;
  // at the same resolution, a high-duplication profile must measure more
  // tile instances per splat than a low-duplication one.
  scene::SceneProfile low = scene::profile_by_name("stump").scaled(0.01);
  scene::SceneProfile high = low;
  low.tile_instances_per_gaussian = 1.5;
  high.tile_instances_per_gaussian = 25.0;
  low.gaussian_count = high.gaussian_count = 3000;
  low.width = high.width = 256;
  low.height = high.height = 192;
  const pipeline::GaussianRenderer renderer;
  auto dup = [&](const scene::SceneProfile& p) {
    const scene::GaussianScene s = scene::generate_scene_for_profile(p);
    scene::GeneratorParams params;
    const pipeline::FrameResult f =
        renderer.render(s, scene::default_camera(params, p.width, p.height));
    return f.sort_stats.instances_per_splat;
  };
  EXPECT_GT(dup(high), dup(low) * 1.5);
}

TEST(Integration, EndToEndPipelineWithHardwareNumbers) {
  // Full collaborative flow at reduced scale: CUDA model stage1-2 +
  // hardware-model stage3 -> sane FPS accounting.
  const auto profile = scene::profile_by_name("bonsai");
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const core::ProfileSimulator sim(core::RasterizerConfig::scaled300());
  const core::ProfileSimResult hw = sim.simulate(profile);
  const core::EndToEndResult e2e =
      core::schedule_frame(cuda.frame_times(profile), hw.runtime_ms());
  EXPECT_GT(e2e.end_to_end_speedup(), 3.0);
  EXPECT_GT(e2e.pipelined_fps(), e2e.cuda_only_fps());
  // The explicit Fig. 8 timeline agrees with the closed form over N frames.
  const int frames = 20;
  const double explicit_ms =
      core::simulate_pipeline_series(
          std::vector<core::FrameWork>(
              frames, {e2e.stage12_ms, e2e.gaurast_raster_ms}))
          .completion_ms.back();
  const double steady = e2e.pipelined_frame_ms();
  EXPECT_NEAR(explicit_ms / frames, steady, steady * 0.15);
}

TEST(Integration, TriangleAndGaussianModesShareOneRasterizer) {
  // Mode switching on the same instance: triangle frame, then Gaussian
  // frame, then triangle again; results stay independent and exact.
  const scene::Camera cam = scene::default_camera({}, 96, 72);
  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());

  const mesh::TriangleMesh cube = mesh::make_cube();
  const auto prims = mesh::build_primitives(cube, cam);
  const Vec3f bg{0, 0, 0};
  const mesh::RasterOutput ref = mesh::render_mesh(cube, cam, bg);

  const core::HwRasterResult t1 = hw.rasterize_triangles(prims, 96, 72, bg);

  scene::GeneratorParams params;
  params.gaussian_count = 800;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const pipeline::GaussianRenderer renderer;
  const pipeline::FrameResult frame = renderer.render(gscene, cam);
  const core::HwRasterResult g = hw.rasterize_gaussians(
      frame.splats, frame.workload, renderer.config().blend);

  const core::HwRasterResult t2 = hw.rasterize_triangles(prims, 96, 72, bg);

  EXPECT_EQ(t1.image.max_abs_diff(ref.color), 0.0f);
  EXPECT_EQ(t2.image.max_abs_diff(t1.image), 0.0f);
  EXPECT_EQ(g.image.max_abs_diff(frame.image), 0.0f);
}

/// Sweep: hardware/software equality must hold across tile sizes.
class TileSizeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TileSizeSweepTest, EqualityHoldsForTileSize) {
  const int ts = GetParam();
  scene::GeneratorParams params;
  params.gaussian_count = 1200;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 96, 80);

  pipeline::RendererConfig rc;
  rc.tile_size = ts;
  const pipeline::GaussianRenderer renderer(rc);
  const pipeline::FrameResult frame = renderer.render(gscene, cam);

  core::RasterizerConfig hc = core::RasterizerConfig::prototype16();
  hc.tile_size = ts;
  const core::HardwareRasterizer hw(hc);
  const core::HwRasterResult r =
      hw.rasterize_gaussians(frame.splats, frame.workload, rc.blend);
  EXPECT_EQ(r.image.max_abs_diff(frame.image), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeSweepTest,
                         ::testing::Values(8, 16, 32));

}  // namespace
}  // namespace gaurast
