#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "engine/backends.hpp"
#include "pipeline/renderer.hpp"

namespace perfbench {

namespace engine = gaurast::engine;
namespace pipeline = gaurast::pipeline;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size())));
  return values[index - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void SpanLog::add(const std::string& span, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recording_) spans_[span].push_back(value);
}

std::vector<double> SpanLog::samples(const std::string& span) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = spans_.find(span);
  return it == spans_.end() ? std::vector<double>{} : it->second;
}

void SpanLog::set_recording(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  recording_ = on;
}

TracedBackend::TracedBackend(std::shared_ptr<const engine::RenderBackend> inner,
                             SpanLog& log)
    : inner_(std::move(inner)), log_(log) {
  if (inner_->capabilities().is_hardware_model) {
    const auto* hw = dynamic_cast<const engine::GauRastBackend*>(inner_.get());
    if (hw == nullptr || !inner_->rasterizer_config()) {
      throw std::runtime_error("cannot trace hardware backend '" +
                               inner_->name() + "'");
    }
    device_.emplace(*inner_->rasterizer_config(), hw->host_config());
  }
}

engine::FrameOutput TracedBackend::render(
    const gaurast::scene::GaussianScene& scene,
    const gaurast::scene::Camera& camera,
    const engine::FrameOptions& options) const {
  const pipeline::GaussianRenderer renderer(options.pipeline);
  const pipeline::ScenePrecompute* precompute = options.scene_precompute.get();
  engine::FrameOutput out;

  const Clock::time_point t0 = Clock::now();
  out.frame = renderer.begin_frame(scene, camera, precompute);
  const Clock::time_point t1 = Clock::now();
  renderer.sort_frame(out.frame);
  const Clock::time_point t2 = Clock::now();
  if (device_) {
    const gaurast::core::DeviceGaussianFrame dev =
        device_->raster_prepared(out.frame, options.pipeline);
    engine::HardwareMetrics hw;
    hw.raster_model_ms = dev.raster_model_ms;
    hw.stage12_model_ms = dev.stage12_model_ms;
    hw.pipelined_frame_ms = dev.pipelined_frame_ms;
    hw.utilization = dev.utilization;
    hw.energy_soc_mj = dev.energy_soc.total_mj();
    out.hw = hw;
  } else {
    renderer.raster_frame(out.frame, precompute);
  }
  const Clock::time_point t3 = Clock::now();

  log_.add("pipeline.preprocess", ms_between(t0, t1));
  log_.add("pipeline.sort", ms_between(t1, t2));
  log_.add(device_ ? "core.hw_raster" : "pipeline.raster", ms_between(t2, t3));
  log_.add("engine.render", ms_between(t0, t3));
  log_.add("pipeline.pairs",
           static_cast<double>(out.frame.raster_stats.pairs_evaluated));
  return out;
}

gaurast::scene::GaussianScene TracedSource::resolve(
    const std::string& key) const {
  const Clock::time_point t0 = Clock::now();
  gaurast::scene::GaussianScene scene = inner_.resolve(key);
  log_.add("scene.load", ms_between(t0, Clock::now()));
  return scene;
}

gaurast::scene::QuantizedScene TracedSource::resolve_quantized(
    const std::string& key, std::size_t max_bytes) const {
  const Clock::time_point t0 = Clock::now();
  gaurast::scene::QuantizedScene scene =
      inner_.resolve_quantized(key, max_bytes);
  log_.add("scene.load", ms_between(t0, Clock::now()));
  return scene;
}

double raster_thread_scaling(
    const std::vector<std::pair<const gaurast::scene::GaussianScene*,
                                gaurast::scene::Camera>>& frames,
    int threads, int rounds) {
  pipeline::RendererConfig serial;
  serial.kernel = pipeline::RasterKernel::kFast;
  pipeline::RendererConfig parallel = serial;
  parallel.num_threads = threads;
  const pipeline::GaussianRenderer serial_renderer(serial);
  const pipeline::GaussianRenderer parallel_renderer(parallel);

  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  for (const auto& [scene, camera] : frames) {
    pipeline::FrameResult prepared = serial_renderer.prepare(*scene, camera);
    std::vector<double> one;
    std::vector<double> many;
    for (int r = 0; r < rounds; ++r) {
      for (const pipeline::GaussianRenderer* renderer :
           {&serial_renderer, &parallel_renderer}) {
        pipeline::FrameResult frame = prepared;
        const Clock::time_point t0 = Clock::now();
        renderer->raster_frame(frame);
        const double ms = ms_between(t0, Clock::now());
        (renderer == &serial_renderer ? one : many).push_back(ms);
      }
    }
    serial_ms += percentile(one, 50.0);
    parallel_ms += percentile(many, 50.0);
  }
  return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace perfbench
