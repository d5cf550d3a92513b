// Tests for the energy and area models: reproduction of the paper's Fig. 9
// breakdown and the 1.7 W module power, plus monotonicity/consistency
// properties.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/area.hpp"
#include "core/energy.hpp"
#include "gpu/config.hpp"

namespace gaurast::core {
namespace {

// -------------------------------------------------------------- Energy --

TEST(EnergyModel, TypicalModulePowerNearPaper) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  EXPECT_NEAR(energy.typical_module_power_w(), 1.7, 0.15);  // paper: 1.7 W
}

TEST(EnergyModel, Fp16ModuleDrawsLess) {
  const EnergyModel fp32(RasterizerConfig::prototype16());
  // Same PE count; FP16 units are cheaper per op but retire 4x pairs.
  RasterizerConfig half_cfg = RasterizerConfig::fp16(16);
  const EnergyModel fp16(half_cfg);
  const double per_pair_32 =
      fp32.typical_module_power_w() / (16e9 * 1);
  const double per_pair_16 =
      fp16.typical_module_power_w() / (16e9 * 4);
  EXPECT_LT(per_pair_16, per_pair_32);
}

TEST(EnergyModel, FromCountersSumsComponents) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  const OpCounts counters{.adds = 1000,
                          .muls = 1000,
                          .divs = 10,
                          .exps = 100,
                          .cmps = 1000,
                          .buf_read_bytes = 5000,
                          .buf_write_bytes = 3000};
  const EnergyBreakdown e = energy.from_counters(counters, 1.0);
  // Every op kind and both traffic directions are priced at their unit
  // energy.
  const EnergyTable& t = energy.table();
  const double overhead = 1.0 + t.control_overhead;
  EXPECT_DOUBLE_EQ(e.datapath_mj,
                   (1000 * t.fp_add_pj + 1000 * t.fp_mul_pj + 10 * t.fp_div_pj +
                    100 * t.fp_exp_pj + 1000 * t.fp_cmp_pj) *
                       overhead * 1e-9);
  EXPECT_DOUBLE_EQ(e.buffer_mj, 8000 * t.sram_pj_per_byte * overhead * 1e-9);
  EXPECT_GT(e.leakage_mj, 0.0);
  EXPECT_NEAR(e.total_mj(), e.datapath_mj + e.buffer_mj + e.leakage_mj, 1e-15);
}

TEST(EnergyModel, EnergyMonotoneInOps) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  const OpCounts a{.muls = 1000};
  const OpCounts b{.muls = 2000};
  EXPECT_LT(energy.from_counters(a, 1.0).datapath_mj,
            energy.from_counters(b, 1.0).datapath_mj);
}

TEST(EnergyModel, SocNodeScaleShrinksEnergy) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  const OpCounts counters{.muls = 100000};
  const EnergyBreakdown proto = energy.from_counters(counters, 1.0);
  const EnergyBreakdown soc = energy.at_soc_node(proto);
  EXPECT_NEAR(soc.total_mj() / proto.total_mj(),
              energy.table().soc_node_scale, 1e-9);
}

TEST(EnergyModel, PairStatisticsScaleLinearly) {
  const EnergyModel energy(RasterizerConfig::scaled300());
  const EnergyBreakdown e1 =
      energy.from_pair_statistics(1'000'000, 0.6, 10'000, 1.0);
  const EnergyBreakdown e2 =
      energy.from_pair_statistics(2'000'000, 0.6, 20'000, 1.0);
  EXPECT_NEAR(e2.datapath_mj / e1.datapath_mj, 2.0, 1e-6);
  EXPECT_NEAR(e2.buffer_mj / e1.buffer_mj, 2.0, 1e-6);
}

TEST(EnergyModel, BlendedFractionRaisesEnergy) {
  const EnergyModel energy(RasterizerConfig::scaled300());
  const double lo =
      energy.from_pair_statistics(1'000'000, 0.1, 0, 1.0).datapath_mj;
  const double hi =
      energy.from_pair_statistics(1'000'000, 0.9, 0, 1.0).datapath_mj;
  EXPECT_LT(lo, hi);
}

TEST(EnergyModel, InvalidBlendFractionThrows) {
  const EnergyModel energy(RasterizerConfig::prototype16());
  EXPECT_THROW(energy.from_pair_statistics(100, 1.5, 0, 1.0), Error);
}

// ---------------------------------------------------------------- Area --

TEST(AreaModel, PeEnhancedShareNearPaper21Percent) {
  const AreaModel area(RasterizerConfig::prototype16());
  EXPECT_NEAR(area.pe_area().enhanced_share(), 0.21, 0.02);
}

TEST(AreaModel, ModuleBreakdownMatchesFig9) {
  const AreaModel area(RasterizerConfig::prototype16());
  const ModuleArea m = area.module_area();
  EXPECT_NEAR(m.total_mm2(), 2.43, 0.1);           // 1.57mm x 1.55mm
  EXPECT_NEAR(m.pe_block_share(), 0.892, 0.02);    // paper 89.2%
  EXPECT_NEAR(m.tile_buffers_share(), 0.101, 0.01);  // paper 10.1%
  EXPECT_NEAR(m.controller_share(), 0.001, 0.001); // paper 0.1%
  EXPECT_NEAR(m.layout_width_mm(), 1.57, 0.01);
  EXPECT_NEAR(m.layout_height_mm(), 1.55, 0.05);
}

TEST(AreaModel, EnhancedSocFractionNearPaper) {
  const AreaModel area(RasterizerConfig::scaled240());
  const double frac = area.soc_fraction(gpu::orin_nx_10w());
  EXPECT_GT(frac, 0.001);
  EXPECT_LT(frac, 0.004);  // paper: ~0.2%
}

TEST(AreaModel, DesignAreaScalesWithModules) {
  const AreaModel one(RasterizerConfig::prototype16());
  const AreaModel fifteen(RasterizerConfig::scaled240());
  EXPECT_NEAR(fifteen.design_mm2() / one.design_mm2(), 15.0, 1e-6);
}

TEST(AreaModel, Fp16ShrinksEverything) {
  const AreaModel fp32(RasterizerConfig::prototype16());
  const AreaModel fp16(RasterizerConfig::fp16(16));
  EXPECT_LT(fp16.pe_area().total_um2(), fp32.pe_area().total_um2());
  EXPECT_LT(fp16.enhanced_mm2(), fp32.enhanced_mm2());
  EXPECT_LT(fp16.module_area().total_mm2(), fp32.module_area().total_mm2());
}

TEST(AreaModel, EnhancedAreaIsGaussianUnitsOnly) {
  const AreaModel area(RasterizerConfig::prototype16());
  const PeArea pe = area.pe_area();
  // 2 adders + 1 multiplier + 1 exp with wiring overhead.
  const AreaTable t{};
  const double expected = (2 * t.fp32_add_um2 + t.fp32_mul_um2 +
                           t.fp32_exp_um2) *
                          (1.0 + t.mux_ff_overhead);
  EXPECT_NEAR(pe.gaussian_um2, expected, 1.0);
}

TEST(AreaModel, SocFractionRequiresHostArea) {
  const AreaModel area(RasterizerConfig::prototype16());
  gpu::GpuConfig host = gpu::orin_nx_10w();
  host.soc_area_mm2 = 0.0;
  EXPECT_THROW(area.soc_fraction(host), Error);
}

TEST(AreaModel, BiggerBuffersGrowBufferShare) {
  RasterizerConfig big = RasterizerConfig::prototype16();
  big.tile_buffer_bytes = 256 * 1024;
  const AreaModel base(RasterizerConfig::prototype16());
  const AreaModel grown(big);
  EXPECT_GT(grown.module_area().tile_buffers_share(),
            base.module_area().tile_buffers_share());
}

}  // namespace
}  // namespace gaurast::core
