// CUDA-collaborative scheduling model (paper Sec. IV-C, Fig. 8).
//
// Under GauRast, the CUDA cores keep Steps 1-2 (preprocessing + sorting)
// while the enhanced rasterizer executes Step 3; consecutive frames pipeline
// so the steady-state frame interval is max(T_steps12, T_step3) rather than
// the sum. This module turns per-stage times into end-to-end FPS for the
// three deployment modes compared in Fig. 11: CUDA-only, GauRast
// non-pipelined (ablation), and GauRast pipelined.
#pragma once

#include <vector>

#include "gpu/cost_model.hpp"

namespace gaurast::core {

struct EndToEndResult {
  // Inputs echoed for reporting.
  double stage12_ms = 0.0;        ///< Steps 1-2 on the CUDA cores
  double cuda_raster_ms = 0.0;    ///< Step 3 on the CUDA cores (baseline)
  double gaurast_raster_ms = 0.0; ///< Step 3 on the enhanced rasterizer

  /// Baseline: everything on the CUDA cores, sequential.
  double cuda_only_frame_ms() const { return stage12_ms + cuda_raster_ms; }
  double cuda_only_fps() const { return 1000.0 / cuda_only_frame_ms(); }

  /// GauRast without cross-frame pipelining (ablation): stages serialize.
  double serial_frame_ms() const { return stage12_ms + gaurast_raster_ms; }
  double serial_fps() const { return 1000.0 / serial_frame_ms(); }

  /// GauRast with CUDA-collaborative pipelining: steady-state interval is
  /// the slower of the two pipeline halves.
  double pipelined_frame_ms() const {
    return stage12_ms > gaurast_raster_ms ? stage12_ms : gaurast_raster_ms;
  }
  double pipelined_fps() const { return 1000.0 / pipelined_frame_ms(); }

  /// First-frame latency under pipelining (fill the pipeline once).
  double pipeline_latency_ms() const {
    return stage12_ms + gaurast_raster_ms;
  }

  double end_to_end_speedup() const {
    return cuda_only_frame_ms() / pipelined_frame_ms();
  }
  double raster_speedup() const {
    return gaurast_raster_ms > 0.0 ? cuda_raster_ms / gaurast_raster_ms : 0.0;
  }
};

/// Combines the GPU cost model's stage times with a GauRast Step-3 runtime.
EndToEndResult schedule_frame(const gpu::StageTimes& cuda_times,
                              double gaurast_raster_ms);

/// Simulates `frames` frames through the two-stage pipeline explicitly
/// (Fig. 8's timeline) and returns the completion time of the last frame —
/// used by tests to confirm the closed-form steady-state interval.
double simulate_pipeline_ms(double stage12_ms, double stage3_ms, int frames);

/// Per-frame workload of a camera trajectory (stage times vary view to
/// view as the visible Gaussian set changes).
struct FrameWork {
  double stage12_ms = 0.0;
  double stage3_ms = 0.0;
};

/// Result of pushing a varying frame sequence through the pipeline.
struct PipelineSeriesResult {
  std::vector<double> completion_ms;  ///< absolute completion time per frame
  std::vector<double> interval_ms;    ///< frame-to-frame delivery interval

  double mean_interval_ms() const;
  double p99_interval_ms() const;  ///< nearest-rank p99: delivery jitter
  double fps() const { return 1000.0 / mean_interval_ms(); }
};

/// Explicit two-resource pipeline over a varying per-frame workload — the
/// trajectory-level version of Fig. 8, used to study frame-time jitter.
PipelineSeriesResult simulate_pipeline_series(
    const std::vector<FrameWork>& frames);

}  // namespace gaurast::core
