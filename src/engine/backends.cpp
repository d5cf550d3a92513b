#include "engine/backends.hpp"

#include <utility>

#include "accel/gscore.hpp"
#include "common/table.hpp"

namespace gaurast::engine {

const char* precision_name(core::Precision precision) {
  return precision == core::Precision::kFp16 ? "fp16" : "fp32";
}

std::string SoftwareBackend::describe() const {
  return "reference software 3DGS pipeline; Steps 1-3 on the host CPU, "
         "Step 3 fans tiles across raster threads and selects the "
         "reference or fast kernel";
}

Capabilities SoftwareBackend::capabilities() const {
  Capabilities caps;
  caps.supports_raster_threads = true;
  caps.supports_kernel_select = true;
  caps.accepts_external_rasterizer_config = false;
  caps.is_hardware_model = false;
  caps.default_precision = core::Precision::kFp32;
  return caps;
}

FrameOutput SoftwareBackend::render(const scene::GaussianScene& scene,
                                    const scene::Camera& camera,
                                    const FrameOptions& options) const {
  const pipeline::GaussianRenderer renderer(options.pipeline);
  FrameOutput out;
  out.frame = renderer.render(scene, camera, options.scene_precompute.get());
  return out;
}

GauRastBackend::GauRastBackend(Spec spec)
    : spec_(std::move(spec)), device_(spec_.rasterizer, spec_.host) {
  if (spec_.description.empty()) {
    const core::RasterizerConfig& r = spec_.rasterizer;
    spec_.description = "GauRast hardware model: " +
                        std::to_string(r.total_pes()) + " " +
                        precision_name(r.precision) + " PEs (" +
                        std::to_string(r.module_count) + "x" +
                        std::to_string(r.pes_per_module) + ") at " +
                        format_fixed(r.clock_ghz, 1) + " GHz on " +
                        spec_.host.name;
  }
}

std::string GauRastBackend::describe() const { return spec_.description; }

Capabilities GauRastBackend::capabilities() const {
  Capabilities caps;
  caps.supports_raster_threads = false;
  caps.accepts_external_rasterizer_config =
      spec_.accepts_external_rasterizer_config;
  caps.is_hardware_model = true;
  caps.default_precision = spec_.rasterizer.precision;
  return caps;
}

FrameOutput GauRastBackend::render(const scene::GaussianScene& scene,
                                   const scene::Camera& camera,
                                   const FrameOptions& options) const {
  const pipeline::GaussianRenderer renderer(options.pipeline);
  FrameOutput out;
  out.frame =
      renderer.begin_frame(scene, camera, options.scene_precompute.get());
  renderer.sort_frame(out.frame);
  const core::DeviceGaussianFrame dev =
      device_.raster_prepared(out.frame, options.pipeline);
  HardwareMetrics hw;
  hw.raster_model_ms = dev.raster_model_ms;
  hw.stage12_model_ms = dev.stage12_model_ms;
  hw.pipelined_frame_ms = dev.pipelined_frame_ms;
  hw.utilization = dev.utilization;
  hw.energy_soc_mj = dev.energy_soc.total_mj();
  out.hw = hw;
  return out;
}

namespace {

GauRastBackend::Spec gscore_spec(gpu::GpuConfig host) {
  GauRastBackend::Spec spec;
  spec.name = "gscore";
  spec.rasterizer = accel::gscore_matched_config(host);
  spec.description = "FP16 GauRast deployment (" +
                     std::to_string(spec.rasterizer.total_pes()) +
                     " PEs) sized to GSCore's published throughput "
                     "(paper Sec. V-C)";
  spec.host = std::move(host);
  spec.accepts_external_rasterizer_config = false;
  return spec;
}

}  // namespace

GScoreBackend::GScoreBackend(gpu::GpuConfig host)
    : GauRastBackend(gscore_spec(std::move(host))) {}

}  // namespace gaurast::engine
