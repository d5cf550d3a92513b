// Spans recorded from outside the program, around the public calls into
// each layer, plus the two decorators a traced run injects into a
// RenderService: a timing engine::RenderBackend (ServiceConfig::
// backend_instance) and a timing scene::SceneSource (ServiceConfig::
// scene_source). An untraced run injects neither.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "engine/backend.hpp"
#include "scene/store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// Thread-safe named sample store: each layer appends the duration (ms) or
/// count of every span it closes while recording is on; the report reads
/// them after the run.
class SpanLog {
 public:
  void add(const std::string& span, double value);
  std::vector<double> samples(const std::string& span) const;
  void set_recording(bool on);

 private:
  mutable std::mutex mutex_;
  bool recording_ = true;
  std::map<std::string, std::vector<double>> spans_;
};

/// Times every frame a service renders and splits it into the pipeline's
/// stages: begin_frame -> sort_frame -> raster_frame for software backends
/// (what GaussianRenderer::render() is documented to be), and
/// begin_frame -> sort_frame -> GauRastDevice::raster_prepared for the
/// GauRast hardware model (what GauRastBackend::render() is). Frames are
/// bit-identical to the wrapped backend's.
///
/// Spans: engine.render, pipeline.preprocess, pipeline.sort,
/// pipeline.raster (software) or core.hw_raster (hardware model), and the
/// count pipeline.pairs per frame.
class TracedBackend : public gaurast::engine::RenderBackend {
 public:
  TracedBackend(std::shared_ptr<const gaurast::engine::RenderBackend> inner,
                SpanLog& log);

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  gaurast::engine::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::optional<gaurast::core::RasterizerConfig> rasterizer_config()
      const override {
    return inner_->rasterizer_config();
  }
  gaurast::engine::FrameOutput render(
      const gaurast::scene::GaussianScene& scene,
      const gaurast::scene::Camera& camera,
      const gaurast::engine::FrameOptions& options) const override;

 private:
  std::shared_ptr<const gaurast::engine::RenderBackend> inner_;
  /// The hardware-model device matching inner_'s operating point; unset for
  /// software backends.
  std::optional<gaurast::core::GauRastDevice> device_;
  SpanLog& log_;
};

/// Times every cold scene load the store asks its source for (span
/// scene.load), delegating to the default synthetic source.
class TracedSource : public gaurast::scene::SceneSource {
 public:
  explicit TracedSource(SpanLog& log) : log_(log) {}

  gaurast::scene::GaussianScene resolve(const std::string& key) const override;
  gaurast::scene::QuantizedScene resolve_quantized(
      const std::string& key, std::size_t max_bytes) const override;

 private:
  gaurast::scene::SyntheticSource inner_;
  SpanLog& log_;
};

/// Fast-kernel Step-3 time at one thread over that at `threads` threads,
/// summed over `frames` (each prepared once, then rastered alternately at
/// both counts `rounds` times; medians per frame).
double raster_thread_scaling(
    const std::vector<std::pair<const gaurast::scene::GaussianScene*,
                                gaurast::scene::Camera>>& frames,
    int threads, int rounds);

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

}  // namespace perfbench
