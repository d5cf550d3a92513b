#include "checks.hpp"

#include <cstring>
#include <memory>

#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "gpu/cost_model.hpp"
#include "pipeline/renderer.hpp"
#include "scene/profile.hpp"

namespace perfbench {

namespace core = gaurast::core;
namespace scene = gaurast::scene;

std::uint64_t hash_floats(const float* data, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t hash_image(const gaurast::Image& image) {
  std::vector<float> rgb;
  rgb.reserve(image.pixel_count() * 3);
  for (const gaurast::Vec3f& px : image.pixels()) {
    rgb.push_back(px.x);
    rgb.push_back(px.y);
    rgb.push_back(px.z);
  }
  return hash_floats(rgb.data(), rgb.size());
}

Oracle::Oracle()
    : store_(scene::SceneStoreConfig{
          0, 0, std::make_shared<scene::SyntheticSource>()}) {}

std::uint64_t Oracle::reference_hash(const std::string& scene_key,
                                     const scene::Camera& camera) {
  const auto scene = store_.acquire(scene_key);
  gaurast::pipeline::RendererConfig config;
  config.kernel = gaurast::pipeline::RasterKernel::kReference;
  return hash_image(
      gaurast::pipeline::GaussianRenderer(config).render(*scene, camera).image);
}

Oracle::HwFrame Oracle::hardware_frame(const std::string& scene_key,
                                       const scene::Camera& camera) {
  const auto scene = store_.acquire(scene_key);
  const core::DeviceGaussianFrame frame = device_.render(*scene, camera);
  return HwFrame{frame.raster_model_ms, hash_image(frame.image)};
}

PaperAverages compute_paper_averages() {
  const gaurast::gpu::CudaCostModel cuda(gaurast::gpu::orin_nx_10w());
  const core::ProfileSimulator sim(core::RasterizerConfig::scaled300());
  PaperAverages sum;
  const auto profiles = scene::nerf360_profiles();
  for (const auto& p : profiles) {
    const core::EndToEndResult e2e =
        core::schedule_frame(cuda.frame_times(p), sim.simulate(p).runtime_ms());
    sum.raster_speedup += e2e.raster_speedup();
    sum.pipelined_fps += e2e.pipelined_fps();
    sum.end_to_end_speedup += e2e.end_to_end_speedup();
  }
  const double n = static_cast<double>(profiles.size());
  return PaperAverages{sum.raster_speedup / n, sum.pipelined_fps / n,
                       sum.end_to_end_speedup / n};
}

PaperAverages pinned_paper_averages() {
  return PaperAverages{23.924530322893649, 23.991497746107143,
                       6.0054377883211245};
}

}  // namespace perfbench
