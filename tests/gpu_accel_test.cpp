// Tests for the edge-GPU cost model and the GSCore comparison model.

#include <gtest/gtest.h>

#include "accel/gscore.hpp"
#include "common/error.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "scene/profile.hpp"

namespace gaurast {
namespace {

TEST(GpuConfig, PresetsAreSane) {
  for (const gpu::GpuConfig& c :
       {gpu::orin_nx_10w(), gpu::xavier_nx(), gpu::m2_pro()}) {
    EXPECT_GT(c.fma_rate_gfma, 0.0) << c.name;
    EXPECT_GT(c.mem_bw_gbps, 0.0) << c.name;
    EXPECT_GT(c.tdp_w, 0.0) << c.name;
    EXPECT_GT(c.soc_area_mm2, 0.0) << c.name;
    EXPECT_LE(c.active_power_w, c.tdp_w * 1.2) << c.name;
  }
}

TEST(GpuConfig, M2ProIs2p6xOrin) {
  EXPECT_NEAR(gpu::m2_pro().fma_rate_gfma / gpu::orin_nx_10w().fma_rate_gfma,
              2.6, 1e-6);
}

TEST(GpuConfig, EffectiveBandwidthAppliesEfficiency) {
  const gpu::GpuConfig c = gpu::orin_nx_10w();
  EXPECT_NEAR(c.effective_bw_gbps(), c.mem_bw_gbps * c.mem_efficiency, 1e-9);
}

TEST(CudaCostModel, RasterTimeMatchesFormula) {
  const gpu::GpuConfig cfg = gpu::orin_nx_10w();
  const gpu::CudaCostModel model(cfg);
  const auto p = scene::profile_by_name("bicycle");
  const double expected = 1000.0 *
                          static_cast<double>(p.total_pairs()) *
                          p.cuda_fma_per_pair / (cfg.fma_rate_gfma * 1e9);
  EXPECT_NEAR(model.raster_ms(p), expected, expected * 1e-9);
}

TEST(CudaCostModel, Tab3BaselinesWithinFivePercent) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  const struct {
    const char* scene;
    double paper_ms;
  } rows[] = {{"bicycle", 321}, {"stump", 149},   {"garden", 232},
              {"room", 236},    {"counter", 216}, {"kitchen", 269},
              {"bonsai", 147}};
  for (const auto& row : rows) {
    EXPECT_NEAR(model.raster_ms(scene::profile_by_name(row.scene)),
                row.paper_ms, row.paper_ms * 0.05)
        << row.scene;
  }
}

TEST(CudaCostModel, BaselineFpsInPaperRange) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  for (const auto& p : scene::nerf360_profiles()) {
    const double fps = model.frame_times(p).fps();
    EXPECT_GT(fps, 2.0) << p.name;   // paper: 2-5 FPS
    EXPECT_LT(fps, 6.0) << p.name;
  }
}

TEST(CudaCostModel, RasterDominatesAbove80Percent) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  for (const auto& p : scene::nerf360_profiles()) {
    EXPECT_GT(model.frame_times(p).raster_share(), 0.80) << p.name;
  }
}

TEST(CudaCostModel, MiniSplattingRasterShareLower) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  for (const auto& name : scene::nerf360_scene_names()) {
    const double orig_share =
        model.frame_times(scene::profile_by_name(
                              name, scene::PipelineVariant::kOriginal))
            .raster_share();
    const double mini_share =
        model.frame_times(scene::profile_by_name(
                              name, scene::PipelineVariant::kMiniSplatting))
            .raster_share();
    EXPECT_LT(mini_share, orig_share) << name;
  }
}

TEST(CudaCostModel, PreprocessRooflineBranches) {
  // A degree-0 profile is lighter on memory than degree-3.
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  scene::SceneProfile p = scene::profile_by_name("room");
  const double deg3 = model.preprocess_ms(p);
  p.sh_degree = 0;
  EXPECT_LT(model.preprocess_ms(p), deg3);
}

TEST(CudaCostModel, PreprocessComputeTermWinsAtLowFmaRate) {
  // Step 1 is memory-bound in every NeRF-360 profile, so only a slow FMA
  // rate exposes the ~600 FMA per Gaussian of projection and SH.
  gpu::GpuConfig cfg = gpu::orin_nx_10w();
  cfg.fma_rate_gfma = 1.0;
  const gpu::CudaCostModel model(cfg);
  const auto p = scene::profile_by_name("room");
  const double compute_ms =
      1000.0 * static_cast<double>(p.gaussian_count) * 600.0 / 1e9;
  EXPECT_NEAR(model.preprocess_ms(p), compute_ms, compute_ms * 1e-9);
  cfg.mem_bw_gbps *= 4.0;  // compute-bound: more bandwidth changes nothing
  EXPECT_EQ(gpu::CudaCostModel(cfg).preprocess_ms(p), model.preprocess_ms(p));
}

TEST(CudaCostModel, SortScalesWithInstances) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  scene::SceneProfile p = scene::profile_by_name("room");
  const double base = model.sort_ms(p);
  p.tile_instances_per_gaussian *= 2.0;
  EXPECT_NEAR(model.sort_ms(p) / base, 2.0, 1e-6);
}

TEST(CudaCostModel, EnergyIsPowerTimesTime) {
  const gpu::GpuConfig cfg = gpu::orin_nx_10w();
  const gpu::CudaCostModel model(cfg);
  const auto p = scene::profile_by_name("stump");
  EXPECT_NEAR(model.raster_energy_mj(p),
              model.raster_ms(p) * cfg.active_power_w, 1e-9);
}

TEST(CudaCostModel, TriangleRenderMuchFasterThan3dgs) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  const auto p = scene::profile_by_name("bicycle");
  const double mesh_ms =
      model.triangle_render_ms(1'000'000, p.pixel_count());
  EXPECT_LT(mesh_ms * 20.0, model.frame_times(p).total_ms());
}

TEST(CudaCostModel, NerfOrdersOfMagnitudeSlower) {
  const gpu::CudaCostModel model(gpu::orin_nx_10w());
  const auto p = scene::profile_by_name("bicycle");
  EXPECT_GT(model.nerf_render_ms(p.pixel_count()),
            model.frame_times(p).total_ms() * 50.0);
}

TEST(CudaCostModel, RejectsInvalidConfig) {
  gpu::GpuConfig cfg = gpu::orin_nx_10w();
  cfg.fma_rate_gfma = 0.0;
  EXPECT_THROW(gpu::CudaCostModel{cfg}, Error);
}

// -------------------------------------------------------------- GSCore --

TEST(GScore, PublishedSpecMatchesPaper) {
  const accel::GScoreSpec spec = accel::gscore_published();
  EXPECT_DOUBLE_EQ(spec.raster_speedup_vs_host, 20.0);
  EXPECT_DOUBLE_EQ(spec.area_mm2, 3.95);
}

TEST(GScore, AreaEfficiencyNearPaper24p7) {
  const auto cmp = accel::compare_area_efficiency(
      gpu::xavier_nx(), scene::profile_by_name("bicycle"));
  EXPECT_NEAR(cmp.gaurast_enhanced_mm2, 0.16, 0.03);  // paper: 0.16 mm2
  EXPECT_NEAR(cmp.area_efficiency_gain, 24.7, 3.0);   // paper: 24.7x
}

TEST(GScore, MorePowerfulHostNeedsMorePes) {
  const auto weak = accel::compare_area_efficiency(
      gpu::xavier_nx(), scene::profile_by_name("bicycle"));
  const auto strong = accel::compare_area_efficiency(
      gpu::orin_nx_10w(), scene::profile_by_name("bicycle"));
  EXPECT_GT(strong.gaurast_fp16_pes, weak.gaurast_fp16_pes);
}

TEST(GScore, InvalidSpecThrows) {
  accel::GScoreSpec spec;
  spec.area_mm2 = 0.0;
  EXPECT_THROW(accel::compare_area_efficiency(
                   gpu::xavier_nx(), scene::profile_by_name("bicycle"), spec),
               Error);
}

TEST(M2Pro, BicycleSpeedupNearPaper) {
  // Reproduction of the Sec. V-D experiment at test granularity.
  const gpu::CudaCostModel software(gpu::m2_pro());
  const auto p = scene::profile_by_name("bicycle");
  const double sw_ms = software.raster_ms(p);
  // GauRast runtime from the paper-calibrated workload at 300 PEs ~ 14.7ms.
  const double speedup = sw_ms / 14.7;
  EXPECT_NEAR(speedup, 11.2, 1.2);
}

}  // namespace
}  // namespace gaurast
