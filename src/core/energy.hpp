// Energy model of the enhanced rasterizer (substitute for the paper's
// Synopsys PrimePower post-layout analysis).
//
// Energy = dynamic (per-op unit energies x counted ops + tile-buffer access
// energy) + leakage (per-module static power x runtime), at a 28 nm-class
// node with typical corner / 0.9 V / 1 GHz unit costs drawn from published
// arithmetic-unit characterizations. A documented technology scale factor
// maps the 28 nm prototype energy onto the baseline SoC's process node
// (Orin NX, 8 nm-class: ~0.26x dynamic energy) for the deployment-level
// efficiency comparisons (paper Fig. 10).
#pragma once

#include "core/config.hpp"

namespace gaurast::core {

/// Unit energies in picojoules (28 nm, FP32 unless noted).
struct EnergyTable {
  /// Nominal operating point the table was characterized at.
  double nominal_clock_ghz = 1.0;
  double nominal_vdd = 0.9;

  double fp_add_pj = 0.9;
  double fp_mul_pj = 3.7;
  double fp_div_pj = 12.0;
  double fp_exp_pj = 15.0;
  double fp_cmp_pj = 0.3;
  double sram_pj_per_byte = 1.2;
  double control_overhead = 0.15;  ///< clock tree / control fraction
  double module_leakage_w = 0.08;  ///< per 16-PE module

  /// FP16 datapath energy relative to FP32.
  double fp16_scale = 0.35;

  /// 28 nm -> baseline-SoC node (8 nm-class) dynamic energy scale.
  double soc_node_scale = 0.30;
};

/// Voltage required to close timing at `clock_ghz`, from a linear
/// frequency-voltage approximation around the 1 GHz / 0.9 V nominal point
/// (28 nm typical corner): Vdd = V0 * (0.6 + 0.4 * f / f0), clamped to
/// [0.7 V, 1.2 V].
double dvfs_voltage(const EnergyTable& table, double clock_ghz);

/// Returns a table rescaled for operation at `clock_ghz`: dynamic unit
/// energies scale with (V/V0)^2, leakage power with (V/V0). Runtime
/// scaling (1/f) is the caller's via RasterizerConfig::clock_ghz.
EnergyTable dvfs_scaled_table(const EnergyTable& table, double clock_ghz);

struct EnergyBreakdown {
  double datapath_mj = 0.0;
  double buffer_mj = 0.0;
  double leakage_mj = 0.0;
  double total_mj() const { return datapath_mj + buffer_mj + leakage_mj; }
  double average_power_w(double runtime_ms) const {
    return runtime_ms > 0.0 ? total_mj() / runtime_ms : 0.0;
  }
};

class EnergyModel {
 public:
  EnergyModel(RasterizerConfig config, EnergyTable table = {});

  /// Energy from exact op counts (functional/detailed simulation) at the
  /// 28 nm prototype node.
  EnergyBreakdown from_counters(const OpCounts& counters,
                                double runtime_ms) const;

  /// Energy for a statistical workload (full-scale ProfileSimulator):
  /// `pairs` evaluated pairs of which `blended_fraction` complete all four
  /// subtasks, plus tile/primitive traffic.
  EnergyBreakdown from_pair_statistics(std::uint64_t pairs,
                                       double blended_fraction,
                                       std::uint64_t primitive_fetches,
                                       double runtime_ms) const;

  /// Applies the SoC-node technology scale to a 28 nm breakdown (leakage
  /// scales with the same factor; runtime is unchanged).
  EnergyBreakdown at_soc_node(const EnergyBreakdown& prototype) const;

  /// Average dynamic+static power (W) of one fully-utilized 16-PE FP32
  /// module at 1 GHz — the paper's "typical power" figure (~1.7 W).
  double typical_module_power_w() const;

  const EnergyTable& table() const { return table_; }

 private:
  /// Datapath energy (pJ) of an op mix at the config's precision, before
  /// control overhead. Sums add, mul, div, exp, cmp in that order, so every
  /// caller prices the same mix to the same bits.
  double datapath_pj(const OpCounts& ops) const;

  RasterizerConfig config_;
  EnergyTable table_;
};

}  // namespace gaurast::core
