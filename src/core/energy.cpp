#include "core/energy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/pe.hpp"

namespace gaurast::core {

double dvfs_voltage(const EnergyTable& table, double clock_ghz) {
  GAURAST_CHECK(clock_ghz > 0.0);
  const double v = table.nominal_vdd *
                   (0.6 + 0.4 * clock_ghz / table.nominal_clock_ghz);
  return std::clamp(v, 0.7, 1.2);
}

EnergyTable dvfs_scaled_table(const EnergyTable& table, double clock_ghz) {
  const double v_ratio = dvfs_voltage(table, clock_ghz) / table.nominal_vdd;
  EnergyTable out = table;
  const double dyn = v_ratio * v_ratio;
  out.fp_add_pj *= dyn;
  out.fp_mul_pj *= dyn;
  out.fp_div_pj *= dyn;
  out.fp_exp_pj *= dyn;
  out.fp_cmp_pj *= dyn;
  out.sram_pj_per_byte *= dyn;
  out.module_leakage_w *= v_ratio;
  return out;
}

EnergyModel::EnergyModel(RasterizerConfig config, EnergyTable table)
    : config_(config), table_(table) {
  config_.validate();
}

double EnergyModel::datapath_pj(const OpCounts& ops) const {
  const double scale =
      config_.precision == Precision::kFp16 ? table_.fp16_scale : 1.0;
  return static_cast<double>(ops.adds) * (table_.fp_add_pj * scale) +
         static_cast<double>(ops.muls) * (table_.fp_mul_pj * scale) +
         static_cast<double>(ops.divs) * (table_.fp_div_pj * scale) +
         static_cast<double>(ops.exps) * (table_.fp_exp_pj * scale) +
         static_cast<double>(ops.cmps) * (table_.fp_cmp_pj * scale);
}

EnergyBreakdown EnergyModel::from_counters(const OpCounts& counters,
                                           double runtime_ms) const {
  EnergyBreakdown e;
  const double overhead = 1.0 + table_.control_overhead;
  e.datapath_mj = datapath_pj(counters) * overhead * 1e-9;  // pJ -> mJ
  e.buffer_mj = static_cast<double>(counters.buffer_bytes()) *
                table_.sram_pj_per_byte * overhead * 1e-9;
  e.leakage_mj = table_.module_leakage_w *
                 static_cast<double>(config_.module_count) * runtime_ms;
  return e;
}

EnergyBreakdown EnergyModel::from_pair_statistics(
    std::uint64_t pairs, double blended_fraction,
    std::uint64_t primitive_fetches, double runtime_ms) const {
  GAURAST_CHECK(blended_fraction >= 0.0 && blended_fraction <= 1.0);
  const double pj_full =
      datapath_pj(gaussian_pair_ops(GaussianOutcome::kBlended));
  const double pj_reject =
      datapath_pj(gaussian_pair_ops(GaussianOutcome::kRejected));

  EnergyBreakdown e;
  const double n = static_cast<double>(pairs);
  const double overhead = 1.0 + table_.control_overhead;
  e.datapath_mj =
      n * (blended_fraction * pj_full + (1.0 - blended_fraction) * pj_reject) *
      overhead * 1e-9;
  e.buffer_mj =
      (n * static_cast<double>(kPairStateBytes.buffer_bytes()) +
       static_cast<double>(primitive_fetches) *
           static_cast<double>(gaussian_primitive_bytes(config_.precision))) *
      table_.sram_pj_per_byte * overhead * 1e-9;
  e.leakage_mj = table_.module_leakage_w *
                 static_cast<double>(config_.module_count) * runtime_ms;
  return e;
}

EnergyBreakdown EnergyModel::at_soc_node(const EnergyBreakdown& prototype) const {
  EnergyBreakdown e;
  e.datapath_mj = prototype.datapath_mj * table_.soc_node_scale;
  e.buffer_mj = prototype.buffer_mj * table_.soc_node_scale;
  e.leakage_mj = prototype.leakage_mj * table_.soc_node_scale;
  return e;
}

double EnergyModel::typical_module_power_w() const {
  // One module, every PE retiring one blended pair per cycle.
  const double pairs_per_s = static_cast<double>(config_.pes_per_module) *
                             config_.pairs_per_cycle_per_pe() *
                             config_.clock_ghz * 1e9;
  const double pj_pair =
      (datapath_pj(gaussian_pair_ops(GaussianOutcome::kBlended)) +
       static_cast<double>(kPairStateBytes.buffer_bytes()) *
           table_.sram_pj_per_byte) *
      (1.0 + table_.control_overhead);
  return pairs_per_s * pj_pair * 1e-12 + table_.module_leakage_w;
}

}  // namespace gaurast::core
