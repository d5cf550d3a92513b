// Tests for the full-scale profile simulator and the CUDA-collaborative
// scheduler, including guardrail tests that pin the headline reproduction
// numbers (Table III / Figs. 10-11 shape) so calibration regressions fail CI.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/energy.hpp"
#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"

namespace gaurast::core {
namespace {

TEST(ProfileSim, DeterministicInSeed) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const auto p = scene::profile_by_name("garden");
  const ProfileSimResult a = sim.simulate(p, 7);
  const ProfileSimResult b = sim.simulate(p, 7);
  EXPECT_EQ(a.timing.makespan_cycles, b.timing.makespan_cycles);
  const ProfileSimResult c = sim.simulate(p, 8);
  EXPECT_NE(a.timing.makespan_cycles, c.timing.makespan_cycles);
}

TEST(ProfileSim, SeedVarianceIsSmall) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const auto p = scene::profile_by_name("room");
  const double r1 = sim.simulate(p, 1).runtime_ms();
  const double r2 = sim.simulate(p, 99).runtime_ms();
  EXPECT_NEAR(r1 / r2, 1.0, 0.05);
}

TEST(ProfileSim, PairsConserved) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const auto p = scene::profile_by_name("bonsai");
  const ProfileSimResult r = sim.simulate(p);
  EXPECT_EQ(r.pairs, p.total_pairs());
  EXPECT_EQ(r.timing.pairs, p.total_pairs());
}

TEST(ProfileSim, RuntimeScalesInverselyWithPes) {
  const auto p = scene::profile_by_name("kitchen");
  RasterizerConfig small = RasterizerConfig::prototype16();
  RasterizerConfig large = RasterizerConfig::scaled300();
  const double t_small = ProfileSimulator(small).simulate(p).runtime_ms();
  const double t_large = ProfileSimulator(large).simulate(p).runtime_ms();
  EXPECT_NEAR(t_small / t_large, 300.0 / 16.0, 2.0);
}

TEST(ProfileSim, UtilizationHighAtFullScale) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  for (const auto& p : scene::nerf360_profiles()) {
    const ProfileSimResult r = sim.simulate(p);
    EXPECT_GT(r.utilization(), 0.9) << p.name;
    EXPECT_LE(r.utilization(), 1.0) << p.name;
  }
}

TEST(ProfileSim, EnergyComponentsPositiveAndSocSmaller) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const ProfileSimResult r = sim.simulate(scene::profile_by_name("counter"));
  EXPECT_GT(r.energy_28nm.total_mj(), 0.0);
  EXPECT_LT(r.energy_soc.total_mj(), r.energy_28nm.total_mj());
  EXPECT_GT(r.power_w_soc(), 1.0);
  EXPECT_LT(r.power_w_soc(), 20.0);
}

TEST(ProfileSim, EmptyProfileThrows) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  scene::SceneProfile p = scene::profile_by_name("bicycle");
  p.pairs_per_pixel = 0.0;
  EXPECT_THROW(sim.simulate(p), Error);
}

// ------------------------------------------------ headline guardrails --

TEST(Reproduction, Tab3GauRastRuntimesWithinTenPercent) {
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const struct {
    const char* scene;
    double paper_ms;
  } rows[] = {{"bicycle", 15.0}, {"stump", 6.0},   {"garden", 9.6},
              {"room", 10.5},    {"counter", 9.8}, {"kitchen", 12.2},
              {"bonsai", 5.5}};
  for (const auto& row : rows) {
    const ProfileSimResult r = sim.simulate(scene::profile_by_name(row.scene));
    EXPECT_NEAR(r.runtime_ms(), row.paper_ms, row.paper_ms * 0.10)
        << row.scene;
  }
}

TEST(Reproduction, RasterSpeedupAveragesNearPaper) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  double sum = 0.0;
  for (const auto& p : scene::nerf360_profiles()) {
    sum += cuda.raster_ms(p) / sim.simulate(p).runtime_ms();
  }
  const double avg = sum / 7.0;
  EXPECT_GT(avg, 20.0);  // paper: ~23x
  EXPECT_LT(avg, 27.0);
}

TEST(Reproduction, MiniSplattingSpeedupLowerThanOriginal) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  double orig = 0.0, mini = 0.0;
  for (const auto& p : scene::nerf360_profiles()) {
    orig += cuda.raster_ms(p) / sim.simulate(p).runtime_ms();
  }
  for (const auto& p : scene::nerf360_mini_profiles()) {
    mini += cuda.raster_ms(p) / sim.simulate(p).runtime_ms();
  }
  EXPECT_LT(mini, orig);  // paper: 20x vs 23x
}

TEST(Reproduction, EnergyGainTracksSpeedup) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const auto p = scene::profile_by_name("garden");
  const ProfileSimResult r = sim.simulate(p);
  const double speedup = cuda.raster_ms(p) / r.runtime_ms();
  const double egain = cuda.raster_energy_mj(p) / r.energy_soc.total_mj();
  EXPECT_NEAR(egain / speedup, 24.0 / 23.0, 0.15);  // paper ratio
}

TEST(Reproduction, EndToEndSpeedupNearSixAtTwentyFourFps) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  double raster_sum = 0.0, fps_sum = 0.0, speedup_sum = 0.0;
  for (const auto& p : scene::nerf360_profiles()) {
    const EndToEndResult e2e = schedule_frame(cuda.frame_times(p),
                                              sim.simulate(p).runtime_ms());
    raster_sum += e2e.raster_speedup();
    fps_sum += e2e.pipelined_fps();
    speedup_sum += e2e.end_to_end_speedup();
  }
  EXPECT_NEAR(speedup_sum / 7.0, 6.0, 0.6);   // paper: 6x
  EXPECT_NEAR(fps_sum / 7.0, 24.0, 3.0);      // paper: 24 FPS
  // `gaurast_cli report`'s averages to every digit (perfbench pins the same
  // digits), so a refactor of the hardware model cannot move one.
  EXPECT_EQ(raster_sum / 7.0, 23.924530322893649);
  EXPECT_EQ(fps_sum / 7.0, 23.991497746107143);
  EXPECT_EQ(speedup_sum / 7.0, 6.0054377883211245);
}

// Both figures read the PE's per-pair op inventory (core/pe.hpp).
TEST(Reproduction, PairOpEnergyPinnedToEveryDigit) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  EXPECT_EQ(energy.typical_module_power_w(), 1.7636000000000003);
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  const ProfileSimResult garden =
      sim.simulate(scene::profile_by_name("garden"));
  EXPECT_EQ(garden.energy_soc.total_mj(), 73.701944890023128);
}

TEST(Reproduction, MiniSplattingReachesFortyishFps) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const ProfileSimulator sim(RasterizerConfig::scaled300());
  double fps_sum = 0.0;
  for (const auto& p : scene::nerf360_mini_profiles()) {
    const EndToEndResult e2e = schedule_frame(cuda.frame_times(p),
                                              sim.simulate(p).runtime_ms());
    fps_sum += e2e.pipelined_fps();
  }
  EXPECT_NEAR(fps_sum / 7.0, 46.0, 7.0);  // paper: 46 FPS
}

// ----------------------------------------------------------- Scheduler --

TEST(Scheduler, PipelinedIsMaxOfStages) {
  gpu::StageTimes t;
  t.preprocess_ms = 10.0;
  t.sort_ms = 20.0;
  t.raster_ms = 200.0;
  const EndToEndResult r = schedule_frame(t, 12.0);
  EXPECT_DOUBLE_EQ(r.pipelined_frame_ms(), 30.0);  // stage12 dominates
  EXPECT_DOUBLE_EQ(r.serial_frame_ms(), 42.0);
  EXPECT_DOUBLE_EQ(r.cuda_only_frame_ms(), 230.0);
  EXPECT_NEAR(r.end_to_end_speedup(), 230.0 / 30.0, 1e-9);
}

TEST(Scheduler, RasterBoundPipeline) {
  gpu::StageTimes t;
  t.preprocess_ms = 5.0;
  t.sort_ms = 5.0;
  t.raster_ms = 100.0;
  const EndToEndResult r = schedule_frame(t, 40.0);
  EXPECT_DOUBLE_EQ(r.pipelined_frame_ms(), 40.0);
}

TEST(Scheduler, NegativeRasterTimeThrows) {
  EXPECT_THROW(schedule_frame(gpu::StageTimes{}, -1.0), Error);
}

TEST(Scheduler, ExplicitPipelineMatchesClosedForm) {
  const double s12 = 30.0, s3 = 12.0;
  const int frames = 50;
  const double sim_ms =
      simulate_pipeline_series(std::vector<FrameWork>(frames, {s12, s3}))
          .completion_ms.back();
  // Steady state: one stage12 fill + (frames) intervals of max(s12, s3)
  // (stage3 of frame i overlaps stage12 of frame i+1).
  const double expected = s12 + s3 + (frames - 1) * std::max(s12, s3);
  EXPECT_NEAR(sim_ms, expected, 1e-9);
}

TEST(Scheduler, ExplicitPipelineRasterBound) {
  const double sim_ms =
      simulate_pipeline_series(std::vector<FrameWork>(40, {10.0, 25.0}))
          .completion_ms.back();
  EXPECT_NEAR(sim_ms, 10.0 + 25.0 + 39 * 25.0, 1e-9);
}

TEST(Scheduler, PipelineLatencyIsFillTime) {
  gpu::StageTimes t;
  t.preprocess_ms = 15.0;
  t.sort_ms = 15.0;
  t.raster_ms = 100.0;
  const EndToEndResult r = schedule_frame(t, 10.0);
  EXPECT_DOUBLE_EQ(r.pipeline_latency_ms(), 40.0);
}

/// Parameterized sweep: pipelining gain = serial / max over stage ratios.
class SchedulerSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SchedulerSweepTest, PipeliningNeverHurts) {
  const double ratio = GetParam();
  gpu::StageTimes t;
  t.preprocess_ms = 10.0;
  t.sort_ms = 10.0;
  t.raster_ms = 100.0;
  const double gau = 20.0 * ratio;
  const EndToEndResult r = schedule_frame(t, gau);
  EXPECT_LE(r.pipelined_frame_ms(), r.serial_frame_ms());
  EXPECT_GE(r.pipelined_fps(), r.serial_fps());
}

INSTANTIATE_TEST_SUITE_P(StageRatios, SchedulerSweepTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 10.0));

}  // namespace
}  // namespace gaurast::core
