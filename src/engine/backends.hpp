// Concrete RenderBackend implementations wrapping the existing execution
// paths:
//
//  * SoftwareBackend — the reference pipeline::GaussianRenderer; all three
//    steps in host software (Step 3 fans across raster threads).
//  * GauRastBackend  — Steps 1-2 on the modeled host GPU, Step 3 on the
//    GauRast enhanced rasterizer via core::GauRastDevice; parameterized by
//    a Spec so every hardware operating point (PE count, precision, host)
//    is one construction, not a new class.
//  * GScoreBackend   — a GauRastBackend whose FP16 configuration is sized
//    to GSCore's published throughput (paper Sec. V-C).
#pragma once

#include <string>

#include "core/device.hpp"
#include "engine/backend.hpp"
#include "gpu/config.hpp"

namespace gaurast::engine {

class SoftwareBackend : public RenderBackend {
 public:
  SoftwareBackend() = default;

  std::string name() const override { return "sw"; }
  std::string describe() const override;
  Capabilities capabilities() const override;
  FrameOutput render(const scene::GaussianScene& scene,
                     const scene::Camera& camera,
                     const FrameOptions& options) const override;
};

class GauRastBackend : public RenderBackend {
 public:
  /// One hardware operating point: what to call it, the enhanced-rasterizer
  /// configuration, and the host SoC whose CUDA cores run Steps 1-2.
  struct Spec {
    std::string name = "gaurast";
    std::string description;
    core::RasterizerConfig rasterizer = core::RasterizerConfig::scaled300();
    gpu::GpuConfig host = gpu::orin_nx_10w();
    bool accepts_external_rasterizer_config = false;
  };

  explicit GauRastBackend(Spec spec);

  std::string name() const override { return spec_.name; }
  std::string describe() const override;
  Capabilities capabilities() const override;
  /// Steps 1-2 run in host software exactly as the software backend's do;
  /// the depth-sorted workload then goes to the enhanced-rasterizer model
  /// (GauRastDevice::raster_prepared) for Step 3.
  FrameOutput render(const scene::GaussianScene& scene,
                     const scene::Camera& camera,
                     const FrameOptions& options) const override;
  std::optional<core::RasterizerConfig> rasterizer_config() const override {
    return spec_.rasterizer;
  }

  const gpu::GpuConfig& host_config() const { return spec_.host; }

 private:
  Spec spec_;
  core::GauRastDevice device_;
};

class GScoreBackend : public GauRastBackend {
 public:
  /// Sizes the FP16 deployment to GSCore's published throughput on `host`.
  explicit GScoreBackend(gpu::GpuConfig host = gpu::orin_nx_10w());
};

}  // namespace gaurast::engine
