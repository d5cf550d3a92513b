#include "gpu/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gaurast::gpu {

CudaCostModel::CudaCostModel(GpuConfig config) : config_(std::move(config)) {
  GAURAST_CHECK(config_.fma_rate_gfma > 0.0);
  GAURAST_CHECK(config_.mem_bw_gbps > 0.0);
}

double CudaCostModel::preprocess_ms(const scene::SceneProfile& profile) const {
  const auto n = static_cast<double>(profile.gaussian_count);
  const double sh_floats = static_cast<double>(
      (profile.sh_degree + 1) * (profile.sh_degree + 1) * 3);
  const double read_bytes = n * (3 + 3 + 4 + 1 + sh_floats) * 4.0;
  const double write_bytes = n * kSplatWriteBytes;
  const double mem_s =
      (read_bytes + write_bytes) / (config_.effective_bw_gbps() * 1e9);
  const double compute_s =
      n * kPreprocessFmaPerGaussian / (config_.fma_rate_gfma * 1e9);
  return 1000.0 * std::max(mem_s, compute_s);
}

double CudaCostModel::sort_ms(const scene::SceneProfile& profile) const {
  const auto instances = static_cast<double>(profile.tile_instances());
  const double bytes = instances * kSortBytesPerInstance;
  return 1000.0 * bytes / (config_.effective_bw_gbps() * 1e9);
}

double CudaCostModel::raster_ms(const scene::SceneProfile& profile) const {
  const auto pairs = static_cast<double>(profile.total_pairs());
  const double fma = pairs * profile.cuda_fma_per_pair *
                     config_.sw_raster_overhead;
  return 1000.0 * fma / (config_.fma_rate_gfma * 1e9);
}

StageTimes CudaCostModel::frame_times(const scene::SceneProfile& profile) const {
  StageTimes t;
  t.preprocess_ms = preprocess_ms(profile);
  t.sort_ms = sort_ms(profile);
  t.raster_ms = raster_ms(profile);
  return t;
}

double CudaCostModel::raster_energy_mj(const scene::SceneProfile& profile) const {
  return raster_ms(profile) * config_.active_power_w;  // ms * W = mJ
}

double CudaCostModel::triangle_render_ms(std::uint64_t triangles,
                                         std::uint64_t pixels,
                                         double overdraw) const {
  // Fixed-function rasterizers sustain ~1 triangle/cycle setup and fill at
  // tens of pixels/cycle; vertex shading runs on the SMs (~120 FMA/vertex).
  const double setup_s = static_cast<double>(triangles) / 1.0e9;
  const double fill_s =
      static_cast<double>(pixels) * overdraw / 32.0 / 1.0e9;
  const double vertex_s = static_cast<double>(triangles) * 3.0 * 120.0 /
                          (config_.fma_rate_gfma * 1e9);
  return 1000.0 * (setup_s + fill_s + vertex_s);
}

double CudaCostModel::nerf_render_ms(std::uint64_t pixels, int samples_per_ray,
                                     double mlp_fma_per_sample) const {
  const double fma = static_cast<double>(pixels) *
                     static_cast<double>(samples_per_ray) * mlp_fma_per_sample;
  return 1000.0 * fma / (config_.fma_rate_gfma * 1e9);
}

}  // namespace gaurast::gpu
