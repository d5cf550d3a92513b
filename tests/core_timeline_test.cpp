// Tests for the tile-level timing engine and its validation against the
// per-cycle detailed simulator (the repo's RTL-vs-simulator analogue).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/detailed_sim.hpp"
#include "core/timeline.hpp"

namespace gaurast::core {
namespace {

RasterizerConfig test_config() {
  RasterizerConfig c = RasterizerConfig::prototype16();
  c.mem_bytes_per_cycle = 64.0;
  c.mem_latency = 20;
  c.pipeline_depth = 4;
  return c;
}

TEST(TileComputeCycles, SharedQueueFormula) {
  const RasterizerConfig c = test_config();
  // 160 pairs / 16 PEs = 10 cycles + 4 pipeline.
  EXPECT_EQ(tile_compute_cycles({160, 0}, c), 14u);
  // Remainder rounds up.
  EXPECT_EQ(tile_compute_cycles({161, 0}, c), 15u);
  EXPECT_EQ(tile_compute_cycles({0, 100}, c), 0u);
}

TEST(TileComputeCycles, Fp16QuadruplesRate) {
  RasterizerConfig c = test_config();
  c.precision = Precision::kFp16;
  EXPECT_EQ(tile_compute_cycles({640, 0}, c), 640u / (16u * 4u) + 4u);
}

TEST(TileFillCycles, BandwidthPlusLatency) {
  const RasterizerConfig c = test_config();
  EXPECT_EQ(tile_fill_cycles({0, 640}, c), 10u + 20u);
  EXPECT_EQ(tile_fill_cycles({0, 0}, c), 0u);
  EXPECT_EQ(tile_fill_cycles({0, 1}, c), 1u + 20u);
}

TEST(ModuleTimeline, ComputeBoundHidesFills) {
  const RasterizerConfig c = test_config();
  // Each tile: compute 104 cycles, fill 30 cycles -> fills fully hidden
  // after the first.
  std::vector<TileLoad> tiles(10, TileLoad{1600, 640});
  const ModuleTimelineResult r = run_module_timeline(tiles, c);
  const Cycle first_fill = tile_fill_cycles(tiles[0], c);
  const Cycle compute = tile_compute_cycles(tiles[0], c);
  EXPECT_EQ(r.busy_cycles, first_fill + 10 * compute);
  EXPECT_EQ(r.stall_cycles, first_fill);
}

TEST(ModuleTimeline, FillBoundThrottles) {
  RasterizerConfig c = test_config();
  c.mem_bytes_per_cycle = 1.0;  // starve the PE block
  std::vector<TileLoad> tiles(5, TileLoad{16, 1000});
  const ModuleTimelineResult r = run_module_timeline(tiles, c);
  // Transfers serialize at 1000 cycles each; computes (5 cycles) vanish
  // inside; expect ~5000 cycles + latency + last compute.
  EXPECT_GT(r.busy_cycles, 5000u);
  EXPECT_GT(r.stall_cycles, 4000u);
}

TEST(ModuleTimeline, EmptySequenceIsInstant) {
  const ModuleTimelineResult r = run_module_timeline({}, test_config());
  EXPECT_EQ(r.busy_cycles, 0u);
  EXPECT_EQ(r.pairs, 0u);
}

TEST(DesignTimeline, ModulesSplitWork) {
  RasterizerConfig one = test_config();
  RasterizerConfig four = test_config();
  four.module_count = 4;
  std::vector<TileLoad> tiles(64, TileLoad{3200, 640});
  const DesignTimelineResult r1 = run_design_timeline(tiles, one);
  const DesignTimelineResult r4 = run_design_timeline(tiles, four);
  EXPECT_NEAR(static_cast<double>(r1.makespan_cycles) /
                  static_cast<double>(r4.makespan_cycles),
              4.0, 0.4);
  EXPECT_EQ(r1.pairs, r4.pairs);
}

TEST(DesignTimeline, UtilizationHighWhenComputeBound) {
  const RasterizerConfig c = test_config();
  std::vector<TileLoad> tiles(100, TileLoad{3200, 640});
  const DesignTimelineResult r = run_design_timeline(tiles, c);
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_LE(r.utilization, 1.0);
}

TEST(DesignTimeline, RuntimeMatchesClock) {
  RasterizerConfig c = test_config();
  c.clock_ghz = 2.0;
  std::vector<TileLoad> tiles(10, TileLoad{1600, 640});
  const DesignTimelineResult r = run_design_timeline(tiles, c);
  EXPECT_NEAR(r.runtime_ms,
              static_cast<double>(r.makespan_cycles) / 2e9 * 1e3, 1e-12);
}

TEST(DesignTimeline, InvalidConfigThrows) {
  RasterizerConfig c = test_config();
  c.pes_per_module = 0;
  EXPECT_THROW(run_design_timeline({}, c), Error);
  c = test_config();
  c.tile_buffer_bytes = 16;  // smaller than pixel state
  EXPECT_THROW(run_design_timeline({}, c), Error);
}

// ------------------------------------------------------- Detailed sim --

/// The deadlock guard: a run that needs more than `max_cycles` throws,
/// exactly enough cycles does not, and an empty tile list takes none.
TEST(DetailedSim, ThrowsOnNonConvergence) {
  const RasterizerConfig c = test_config();
  const std::vector<TileLoad> tiles(4, TileLoad{1600, 2048});
  const Cycle needed = run_detailed_module_sim(tiles, c).cycles;
  ASSERT_GT(needed, 0u);
  EXPECT_EQ(run_detailed_module_sim(tiles, c, needed).cycles, needed);
  EXPECT_THROW(run_detailed_module_sim(tiles, c, needed - 1), Error);
  EXPECT_EQ(run_detailed_module_sim({}, c, 0).cycles, 0u);
}

// ------------------------- detailed-vs-analytic validation (TEST_P) -----

struct ValidationCase {
  const char* name;
  int tiles;
  std::uint64_t pairs_mean;
  std::uint64_t fill_bytes;
  double pair_spread;  ///< lognormal sigma of per-tile loads
  double bytes_per_cycle;
};

class TimelineValidationTest
    : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(TimelineValidationTest, DetailedSimAgreesWithAnalyticTimeline) {
  const ValidationCase& vc = GetParam();
  RasterizerConfig c = test_config();
  c.mem_bytes_per_cycle = vc.bytes_per_cycle;
  Pcg32 rng(99);
  std::vector<TileLoad> tiles;
  for (int i = 0; i < vc.tiles; ++i) {
    TileLoad t;
    t.pairs = static_cast<std::uint64_t>(
        static_cast<double>(vc.pairs_mean) *
        rng.lognormal(-0.5 * vc.pair_spread * vc.pair_spread, vc.pair_spread));
    t.fill_bytes = vc.fill_bytes;
    tiles.push_back(t);
  }
  const ModuleTimelineResult analytic = run_module_timeline(tiles, c);
  const DetailedSimResult detailed = run_detailed_module_sim(tiles, c);
  EXPECT_EQ(detailed.pairs, analytic.pairs);
  const double rel =
      std::abs(static_cast<double>(detailed.cycles) -
               static_cast<double>(analytic.busy_cycles)) /
      static_cast<double>(analytic.busy_cycles);
  EXPECT_LT(rel, 0.05) << "detailed=" << detailed.cycles
                       << " analytic=" << analytic.busy_cycles;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, TimelineValidationTest,
    ::testing::Values(
        ValidationCase{"compute_bound_uniform", 40, 4000, 1024, 0.0, 64.0},
        ValidationCase{"compute_bound_skewed", 40, 4000, 1024, 0.8, 64.0},
        ValidationCase{"balanced", 30, 1000, 4096, 0.4, 64.0},
        ValidationCase{"fill_bound", 30, 100, 8192, 0.2, 8.0},
        ValidationCase{"tiny_tiles", 100, 64, 512, 0.5, 64.0},
        ValidationCase{"single_tile", 1, 10000, 2048, 0.0, 64.0},
        ValidationCase{"heavy_tail", 25, 2000, 2048, 1.2, 32.0}),
    [](const ::testing::TestParamInfo<ValidationCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace gaurast::core
