#include "core/config.hpp"

#include "common/error.hpp"

namespace gaurast::core {

void RasterizerConfig::validate() const {
  // Configs come from files and sweeps, so a bad one is an input error
  // that names the field, not an internal invariant.
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw Error(what);
  };
  require(pes_per_module > 0 && pes_per_module <= 1024,
          "pes_per_module must be in [1, 1024]");
  require(module_count > 0 && module_count <= 256,
          "module_count must be in [1, 256]");
  require(clock_ghz > 0.0 && clock_ghz <= 4.0, "clock_ghz must be in (0, 4]");
  require(tile_size > 0 && tile_size <= 64, "tile_size must be in [1, 64]");
  require(tile_buffer_bytes >= 1024, "tile_buffer_bytes must be >= 1024");
  require(mem_bytes_per_cycle > 0.0, "mem_bytes_per_cycle must be > 0");
  require(pipeline_depth >= 1, "pipeline_depth must be >= 1");
  // The tile buffer must at least hold the pixel state plus one primitive.
  const std::size_t pixel_bytes =
      static_cast<std::size_t>(pixels_per_tile()) * pixel_state_bytes(precision);
  require(tile_buffer_bytes > pixel_bytes + gaussian_primitive_bytes(precision),
          "tile_buffer_bytes too small for one tile's pixel state");
}

RasterizerConfig RasterizerConfig::prototype16() {
  RasterizerConfig c;
  c.pes_per_module = 16;
  c.module_count = 1;
  c.clock_ghz = 1.0;
  c.precision = Precision::kFp32;
  return c;
}

RasterizerConfig RasterizerConfig::scaled240() {
  RasterizerConfig c = prototype16();
  c.module_count = 15;
  return c;
}

RasterizerConfig RasterizerConfig::scaled300() {
  RasterizerConfig c = prototype16();
  c.module_count = 15;
  c.pes_per_module = 20;
  return c;
}

RasterizerConfig RasterizerConfig::fp16(int pes, int modules) {
  RasterizerConfig c = prototype16();
  c.precision = Precision::kFp16;
  c.pes_per_module = pes;
  c.module_count = modules;
  return c;
}

std::size_t gaussian_primitive_bytes(Precision precision) {
  return 9 * (precision == Precision::kFp16 ? 2 : 4);
}

std::size_t triangle_primitive_bytes(Precision precision) {
  return 9 * (precision == Precision::kFp16 ? 2 : 4);
}

std::size_t pixel_state_bytes(Precision precision) {
  return 4 * (precision == Precision::kFp16 ? 2 : 4);  // RGB + T
}

}  // namespace gaurast::core
