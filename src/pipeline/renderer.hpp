// End-to-end 3DGS software renderer: Step 1 -> Step 2 -> Step 3.
//
// This is the complete reference pipeline (paper Fig. 3). Its FrameResult
// exposes the intermediate TileWorkload so the GauRast hardware simulators
// can take over Step 3 on exactly the data the CUDA cores would hand them
// (the CUDA-collaborative split of paper Sec. IV-C).
#pragma once

#include <optional>

#include "gsmath/image.hpp"
#include "pipeline/preprocess.hpp"
#include "pipeline/rasterize.hpp"
#include "pipeline/sort.hpp"
#include "scene/camera.hpp"
#include "scene/gaussian.hpp"

namespace gaurast::pipeline {

struct RendererConfig {
  int tile_size = 16;
  BlendParams blend;
  /// Step-2 duplication mode; kTightEllipse is the shape-aware-culling
  /// extension (see pipeline/sort.hpp), off by default to match the
  /// reference pipeline.
  CullingMode culling = CullingMode::kBoundingBox;
  /// Host threads for Steps 1-3: Step 1 projects scene chunks across them,
  /// Step 2 bins splat chunks and sorts tiles across them, and Step 3 fans
  /// tiles across them. Every stage is bit-identical for any thread count.
  int num_threads = 1;
  /// Which Step-3 software kernel runs (see pipeline/rasterize.hpp);
  /// kReference is the scalar oracle, kFast the optimized bit-identical
  /// kernel. Hardware-model backends ignore this (their Step 3 is the
  /// modeled rasterizer).
  RasterKernel kernel = RasterKernel::kReference;
};

/// Everything produced while rendering one frame.
struct FrameResult {
  Image image;
  std::vector<Splat2D> splats;   ///< Step 1 output
  TileWorkload workload;         ///< Step 2 output
  PreprocessStats preprocess_stats;
  SortStats sort_stats;
  RasterStats raster_stats;

  /// Mean evaluated splat-pixel pairs per output pixel.
  double pairs_per_pixel() const {
    return raster_stats.mean_pairs_per_pixel(
        static_cast<std::uint64_t>(image.width()) *
        static_cast<std::uint64_t>(image.height()));
  }
};

/// Thread-safety: a GaussianRenderer holds only immutable configuration, and
/// render()/prepare() take the scene by const reference and touch no shared
/// mutable state, so one instance (and one scene) may be shared across any
/// number of concurrent callers — the contract the runtime::RenderService
/// workers rely on when they fan frames out over a cached scene.
class GaussianRenderer {
 public:
  explicit GaussianRenderer(RendererConfig config = {});

  /// Renders one frame through all three steps. `precompute`, when non-null,
  /// must have been built from `scene` (pipeline::precompute_scene) and
  /// skips the camera-independent part of Step 1; output is bit-identical
  /// either way.
  FrameResult render(const scene::GaussianScene& scene,
                     const scene::Camera& camera,
                     const ScenePrecompute* precompute = nullptr) const;

  /// Steps 1 + 2 only (what the CUDA cores retain under GauRast
  /// scheduling). The result's image is not yet allocated — Step-3
  /// executors consume splats + workload (whose grid carries the frame
  /// dimensions) and produce the image themselves.
  FrameResult prepare(const scene::GaussianScene& scene,
                      const scene::Camera& camera,
                      const ScenePrecompute* precompute = nullptr) const;

  // Per-stage entry points. A frame is exactly
  //   begin_frame -> sort_frame -> raster_frame,
  // and prepare()/render() are compositions of them, so a caller that
  // invokes the stages itself (a timing harness, the GauRast backend's
  // Step-3 hand-off) produces bit-identical frames by construction.

  /// Step 1 only: projects the scene's Gaussians into screen-space splats
  /// and seeds the tile grid (the frame's dimension carrier for the later
  /// stages).
  FrameResult begin_frame(const scene::GaussianScene& scene,
                          const scene::Camera& camera,
                          const ScenePrecompute* precompute = nullptr) const;

  /// Step 2 only: builds the depth-sorted TileWorkload from frame.splats
  /// over the grid begin_frame seeded.
  void sort_frame(FrameResult& frame) const;

  /// Step 3 only: rasterizes the sorted workload into frame.image,
  /// allocating it on the calling thread if not already grid-sized.
  /// `precompute` supplies the fast kernel's per-scene raster cutoffs
  /// (bit-identical output either way; see pipeline::rasterize).
  void raster_frame(FrameResult& frame,
                    const ScenePrecompute* precompute = nullptr) const;

  const RendererConfig& config() const { return config_; }

 private:
  RendererConfig config_;
};

}  // namespace gaurast::pipeline
