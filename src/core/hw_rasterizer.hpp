// GauRast hardware rasterizer — functional + cycle model.
//
// Consumes exactly what the CUDA cores hand the enhanced rasterizer under
// the collaborative schedule: the depth-sorted TileWorkload (Gaussian mode)
// or the post-vertex-stage primitive stream (triangle mode). Produces
// (a) the rendered image via the PE functional datapath — bit-identical to
// the software reference in FP32 — and (b) cycle counts via the tile-level
// timeline, plus op counters for the energy model.
#pragma once

#include "core/config.hpp"
#include "core/energy.hpp"
#include "core/timeline.hpp"
#include "gsmath/image.hpp"
#include "mesh/raster.hpp"
#include "pipeline/rasterize.hpp"

namespace gaurast::core {

struct HwRasterResult {
  Image image;
  DesignTimelineResult timing;
  OpCounts counters;
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t pairs_blended = 0;
  /// The tile-load sequence the timing was computed from; persist with
  /// core/trace.hpp to replay timing sweeps without re-rendering.
  std::vector<TileLoad> tile_loads;

  double runtime_ms() const { return timing.runtime_ms; }
  double utilization() const { return timing.utilization; }
  double blended_fraction() const {
    return pairs_evaluated == 0
               ? 0.0
               : static_cast<double>(pairs_blended) /
                     static_cast<double>(pairs_evaluated);
  }
};

class HardwareRasterizer {
 public:
  explicit HardwareRasterizer(RasterizerConfig config);

  const RasterizerConfig& config() const { return config_; }

  /// Gaussian mode: rasterizes the sorted splat workload. `params` must
  /// match the software run for image-equality comparisons.
  HwRasterResult rasterize_gaussians(const std::vector<pipeline::Splat2D>& splats,
                                     const pipeline::TileWorkload& work,
                                     const pipeline::BlendParams& params) const;

  /// Triangle mode: rasterizes a post-vertex-stage primitive stream,
  /// preserving the original rasterizer's functionality. Primitives are
  /// binned to tiles and z-buffered per pixel.
  HwRasterResult rasterize_triangles(const std::vector<mesh::ScreenTriangle>& prims,
                                     int width, int height,
                                     Vec3f background) const;

 private:
  RasterizerConfig config_;
};

}  // namespace gaurast::core
