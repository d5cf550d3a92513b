// engine::RenderBackend — the one seam every execution path goes through.
//
// The paper's claim is one device serving Gaussian (and triangle) workloads
// through one enhanced rasterizer; this module is the software mirror of
// that claim: one abstract backend API behind which the reference software
// pipeline, the GauRast hardware model, and any future operating point
// (new PE counts, precisions, hosts, rival accelerators) are
// interchangeable. The CLI, the concurrent RenderService, the benches and
// the examples all consume backends through this interface — adding an
// operating point is one registration in engine/registry.hpp, not N
// call-site edits.
//
// Thread-safety contract: render() is const, takes the scene by const
// reference and touches no mutable backend state, so one backend instance
// may serve any number of concurrent callers — the guarantee the
// RenderService workers rely on.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "pipeline/renderer.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::engine {

/// What a backend can do with the knobs callers may pass. Flag validation
/// and help text are derived from these bits (never from name string
/// if-chains), so a new backend gets correct CLI behavior for free.
struct Capabilities {
  /// Step 3 runs in host software and fans tiles across
  /// FrameOptions::pipeline.num_threads (bit-identical for any count).
  bool supports_raster_threads = false;
  /// FrameOptions::pipeline.kernel selects the Step-3 software kernel
  /// (reference scalar oracle vs the optimized fast kernel, bit-identical
  /// by contract). Hardware-model backends run Step 3 on the modeled
  /// rasterizer and reject the flag.
  bool supports_kernel_select = false;
  /// BackendOptions::rasterizer is honored; backends that derive their own
  /// operating point (e.g. the GSCore-matched FP16 sizing) reject it.
  bool accepts_external_rasterizer_config = false;
  /// Step 3 is a modeled hardware rasterizer; FrameOutput::hw is populated.
  bool is_hardware_model = false;
  /// Datapath precision of the Step-3 executor.
  core::Precision default_precision = core::Precision::kFp32;
};

/// Creation-time options, applied by engine::create(). Fields a backend's
/// capabilities() does not advertise support for are rejected there.
struct BackendOptions {
  /// External hardware-model operating point (e.g. from a --config file).
  std::optional<core::RasterizerConfig> rasterizer;
};

/// Per-frame options; creation-time choices live in BackendOptions.
struct FrameOptions {
  /// Steps 1-2 settings for every backend; num_threads additionally drives
  /// the Step-3 tile fan-out where supports_raster_threads is set.
  pipeline::RendererConfig pipeline;
  /// Camera-independent per-scene state (pipeline::precompute_scene),
  /// shared across every frame of the same scene. When set it must have
  /// been built from the scene render() is invoked with. Backends whose
  /// Step 1 runs in host software substitute the precomputed values for the
  /// per-frame computation (bit-identical output); others may ignore it.
  std::shared_ptr<const pipeline::ScenePrecompute> scene_precompute;
};

/// Modeled deployment metrics, present when is_hardware_model is set.
struct HardwareMetrics {
  double raster_model_ms = 0.0;     ///< Step 3 on the enhanced rasterizer
  double stage12_model_ms = 0.0;    ///< Steps 1-2 on the host GPU
  double pipelined_frame_ms = 0.0;  ///< steady-state collaborative interval
  double utilization = 0.0;         ///< PE utilization
  double energy_soc_mj = 0.0;       ///< Step-3 energy at the SoC node

  double pipelined_fps() const {
    return pipelined_frame_ms > 0.0 ? 1000.0 / pipelined_frame_ms : 0.0;
  }
};

/// Everything a backend returns for one frame: the full pipeline result
/// (image + workload + per-step stats, Step-3 fields reflecting whichever
/// executor ran it) plus modeled hardware metrics where applicable.
struct FrameOutput {
  pipeline::FrameResult frame;
  std::optional<HardwareMetrics> hw;
};

/// "fp32" | "fp16" — the spelling used in CLI tables and JSON reports.
const char* precision_name(core::Precision precision);

class RenderBackend {
 public:
  virtual ~RenderBackend() = default;

  /// Registry key ("sw", "gaurast", ...), stable across releases.
  virtual std::string name() const = 0;

  /// One-line human description of the operating point.
  virtual std::string describe() const = 0;

  virtual Capabilities capabilities() const = 0;

  /// Renders one frame. Deterministic in (scene, camera, options): images
  /// are bit-identical no matter which thread or worker runs the call.
  virtual FrameOutput render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const FrameOptions& options) const = 0;

  /// The hardware-model operating point, when there is one (lets callers
  /// report PE count/precision without downcasting); nullopt for pure
  /// software backends.
  virtual std::optional<core::RasterizerConfig> rasterizer_config() const {
    return std::nullopt;
  }
};

}  // namespace gaurast::engine
