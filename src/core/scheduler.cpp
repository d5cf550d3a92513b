#include "core/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace gaurast::core {

EndToEndResult schedule_frame(const gpu::StageTimes& cuda_times,
                              double gaurast_raster_ms) {
  GAURAST_CHECK(gaurast_raster_ms >= 0.0);
  EndToEndResult r;
  r.stage12_ms = cuda_times.stage12_ms();
  r.cuda_raster_ms = cuda_times.raster_ms;
  r.gaurast_raster_ms = gaurast_raster_ms;
  return r;
}

double PipelineSeriesResult::mean_interval_ms() const {
  GAURAST_CHECK(!interval_ms.empty());
  double sum = 0.0;
  for (double v : interval_ms) sum += v;
  return sum / static_cast<double>(interval_ms.size());
}

double PipelineSeriesResult::p99_interval_ms() const {
  GAURAST_CHECK(!interval_ms.empty());
  std::vector<double> sorted = interval_ms;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, 0.99);
}

PipelineSeriesResult simulate_pipeline_series(
    const std::vector<FrameWork>& frames) {
  GAURAST_CHECK(!frames.empty());
  PipelineSeriesResult result;
  result.completion_ms.reserve(frames.size());
  double cuda_free = 0.0;
  double gaurast_free = 0.0;
  for (const FrameWork& f : frames) {
    GAURAST_CHECK(f.stage12_ms >= 0.0 && f.stage3_ms >= 0.0);
    // The CUDA cores run Steps 1-2 of frame i+1 while GauRast runs Step 3
    // of frame i.
    const double stage12_done = cuda_free + f.stage12_ms;
    cuda_free = stage12_done;
    const double stage3_start = std::max(stage12_done, gaurast_free);
    const double stage3_done = stage3_start + f.stage3_ms;
    gaurast_free = stage3_done;
    result.completion_ms.push_back(stage3_done);
  }
  result.interval_ms.reserve(frames.size());
  for (std::size_t i = 0; i < result.completion_ms.size(); ++i) {
    result.interval_ms.push_back(
        i == 0 ? result.completion_ms[0]
               : result.completion_ms[i] - result.completion_ms[i - 1]);
  }
  return result;
}

}  // namespace gaurast::core
