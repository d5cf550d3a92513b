#include "pipeline/renderer.hpp"

#include "common/error.hpp"

namespace gaurast::pipeline {

GaussianRenderer::GaussianRenderer(RendererConfig config)
    : config_(config) {
  GAURAST_CHECK(config_.tile_size > 0 && config_.tile_size <= 64);
}

FrameResult GaussianRenderer::begin_frame(
    const scene::GaussianScene& scene, const scene::Camera& camera,
    const ScenePrecompute* precompute) const {
  FrameResult result;
  // Seed the tile grid now (it is the frame's dimension carrier for the
  // later stages); the image itself is allocated by raster_frame, on the
  // thread that will write it.
  result.workload.grid.tile_size = config_.tile_size;
  result.workload.grid.width = camera.width();
  result.workload.grid.height = camera.height();
  result.splats =
      preprocess(scene, camera, &result.preprocess_stats, precompute);
  return result;
}

void GaussianRenderer::sort_frame(FrameResult& frame) const {
  const TileGrid grid = frame.workload.grid;
  GAURAST_CHECK(grid.width > 0 && grid.height > 0);
  frame.workload = sort_splats(frame.splats, grid, &frame.sort_stats,
                               config_.culling, config_.blend.alpha_min,
                               config_.num_threads);
}

void GaussianRenderer::raster_frame(FrameResult& frame,
                                    const ScenePrecompute* precompute) const {
  const TileGrid& grid = frame.workload.grid;
  if (frame.image.width() != grid.width ||
      frame.image.height() != grid.height) {
    frame.image = Image(grid.width, grid.height);
  }
  // rasterize_into overwrites every pixel (background first), so a reused
  // or fresh buffer gives bit-identical output to rasterize().
  rasterize_into(frame.image, frame.splats, frame.workload, config_.blend,
                 config_.collect_stats ? &frame.raster_stats : nullptr,
                 config_.num_threads, config_.kernel, precompute);
}

FrameResult GaussianRenderer::prepare(const scene::GaussianScene& scene,
                                      const scene::Camera& camera,
                                      const ScenePrecompute* precompute) const {
  FrameResult result = begin_frame(scene, camera, precompute);
  sort_frame(result);
  return result;
}

FrameResult GaussianRenderer::render(const scene::GaussianScene& scene,
                                     const scene::Camera& camera,
                                     const ScenePrecompute* precompute) const {
  FrameResult result = prepare(scene, camera, precompute);
  raster_frame(result, precompute);
  return result;
}

}  // namespace gaurast::pipeline
