// GauRast enhanced-rasterizer configuration (paper Sec. IV).
//
// One rasterizer module is the unit the paper prototypes: 16 PEs, ping-pong
// tile buffers, dispatch controller and result collector, clocked at 1 GHz in
// 28 nm. The evaluated deployment scales to 15 module instances; the paper
// states a 300-PE total (15 x 16 = 240 — we expose both readings as presets
// and use the stated 300-PE aggregate for headline numbers).
#pragma once

#include <cstddef>
#include <cstdint>

namespace gaurast::core {

/// The clock unit of the hardware models: the analytic tile timeline
/// (core/timeline.hpp) and the per-cycle detailed module
/// (core/detailed_sim.hpp) both count cycles of the module clock.
using Cycle = std::uint64_t;

/// The op ledger of the PE model: datapath ops retired and tile-buffer
/// traffic, the inputs EnergyModel prices (paper Table II's per-pair mix
/// plus the triangle-mode divider). HardwareRasterizer fills one per frame.
struct OpCounts {
  std::uint64_t adds = 0;
  std::uint64_t muls = 0;
  std::uint64_t divs = 0;
  std::uint64_t exps = 0;
  std::uint64_t cmps = 0;
  std::uint64_t buf_read_bytes = 0;
  std::uint64_t buf_write_bytes = 0;
  std::uint64_t primitives = 0;  ///< tile-list entries fetched

  constexpr OpCounts& operator+=(const OpCounts& o) {
    adds += o.adds;
    muls += o.muls;
    divs += o.divs;
    exps += o.exps;
    cmps += o.cmps;
    buf_read_bytes += o.buf_read_bytes;
    buf_write_bytes += o.buf_write_bytes;
    primitives += o.primitives;
    return *this;
  }
  bool operator==(const OpCounts&) const = default;

  constexpr std::uint64_t buffer_bytes() const {
    return buf_read_bytes + buf_write_bytes;
  }
};

/// `n` copies of `ops`: a per-pair or per-primitive row times its count.
constexpr OpCounts operator*(OpCounts ops, std::uint64_t n) {
  ops.adds *= n;
  ops.muls *= n;
  ops.divs *= n;
  ops.exps *= n;
  ops.cmps *= n;
  ops.buf_read_bytes *= n;
  ops.buf_write_bytes *= n;
  ops.primitives *= n;
  return ops;
}

enum class Precision { kFp32, kFp16 };

struct RasterizerConfig {
  int pes_per_module = 16;
  int module_count = 1;
  double clock_ghz = 1.0;
  Precision precision = Precision::kFp32;

  int tile_size = 16;  ///< pixels per tile edge (matches 3DGS tiling)

  /// Capacity of each ping-pong tile buffer (bytes). Holds the tile's
  /// primitive queue (36 B per Gaussian: 9 FP32 values) plus pixel state.
  std::size_t tile_buffer_bytes = 64 * 1024;

  /// Cache/memory interface per module: sustained bytes per cycle and fixed
  /// access latency (paper Fig. 7(b) "Cache/Memory Interface").
  double mem_bytes_per_cycle = 64.0;
  Cycle mem_latency = 40;

  /// PE pipeline depth: cycles from operand issue to writeback; adds a
  /// fill/drain overhead per tile.
  int pipeline_depth = 4;

  /// Splat-pixel pairs retired per PE per cycle. FP32 PEs retire 1; the
  /// FP16 re-implementation (Sec. V-C) packs two half-width lanes and
  /// double-pumps the shared datapath for 4 pairs/cycle.
  int pairs_per_cycle_per_pe() const {
    return precision == Precision::kFp16 ? 4 : 1;
  }

  int total_pes() const { return pes_per_module * module_count; }

  /// Aggregate pair throughput (pairs/s) at full utilization.
  double peak_pairs_per_second() const {
    return static_cast<double>(total_pes()) * pairs_per_cycle_per_pe() *
           clock_ghz * 1e9;
  }

  int pixels_per_tile() const { return tile_size * tile_size; }

  /// Throws gaurast::Error naming the first out-of-range field.
  void validate() const;

  /// The synthesized 16-PE prototype (28 nm, 1 GHz, FP32).
  static RasterizerConfig prototype16();

  /// Literal scaling of the prototype: 15 modules x 16 PEs = 240 PEs.
  static RasterizerConfig scaled240();

  /// The paper's stated evaluation aggregate: 300 PEs across 15 modules.
  static RasterizerConfig scaled300();

  /// FP16 variant used for the GSCore comparison (Sec. V-C).
  static RasterizerConfig fp16(int pes, int modules = 1);
};

/// Bytes of one Gaussian primitive in the tile buffer: conic(3) + mean(2) +
/// opacity(1) + color(3) = 9 FP values (Table II input width).
std::size_t gaussian_primitive_bytes(Precision precision);

/// Bytes of one triangle primitive (9 FP geometry values plus interpolants;
/// we charge the same 9-value width the paper's Table II lists).
std::size_t triangle_primitive_bytes(Precision precision);

/// Per-pixel blend state held in the tile buffer: RGB accumulator + T.
std::size_t pixel_state_bytes(Precision precision);

}  // namespace gaurast::core
