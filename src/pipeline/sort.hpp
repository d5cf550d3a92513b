// Step 2 of the 3DGS pipeline (paper Fig. 3(c)): tile duplication and
// depth sorting.
//
// Each splat is duplicated once per 16x16 screen tile its 3-sigma bounding
// box overlaps; instances are keyed (tile_id << 32) | float_bits(depth),
// binned by tile and depth-sorted within each tile, yielding per-tile,
// front-to-back splat lists — the (tile, depth) order the reference CUDA
// implementation builds with its device-wide sort, and the structure
// GauRast's tile buffers are filled from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pipeline/preprocess.hpp"

namespace gaurast::pipeline {

/// Pixel rectangle [x0, x1) x [y0, y1) one tile covers, clipped to the image.
struct TileBounds {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
};

/// Screen tiling parameters. 16x16 matches the reference implementation and
/// the paper's tile-buffer granularity.
struct TileGrid {
  int tile_size = 16;
  int width = 0;   ///< image width, pixels
  int height = 0;  ///< image height, pixels

  int tiles_x() const { return (width + tile_size - 1) / tile_size; }
  int tiles_y() const { return (height + tile_size - 1) / tile_size; }
  std::uint32_t tile_count() const {
    return static_cast<std::uint32_t>(tiles_x()) *
           static_cast<std::uint32_t>(tiles_y());
  }

  /// Pixels of tile `tile_id` (row-major tile order); edge tiles are
  /// clipped to the image.
  TileBounds tile_bounds(std::uint32_t tile_id) const {
    const int tx = static_cast<int>(tile_id) % tiles_x();
    const int ty = static_cast<int>(tile_id) / tiles_x();
    TileBounds b;
    b.x0 = tx * tile_size;
    b.y0 = ty * tile_size;
    b.x1 = std::min(b.x0 + tile_size, width);
    b.y1 = std::min(b.y0 + tile_size, height);
    return b;
  }
};

/// One duplicated splat instance: which splat, in which tile, at what depth.
struct TileInstance {
  std::uint64_t key = 0;        ///< (tile << 32) | depth bits
  std::uint32_t splat_index = 0;

  std::uint32_t tile() const { return static_cast<std::uint32_t>(key >> 32); }
};

/// Contiguous range of sorted instances belonging to one tile.
struct TileRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t size() const { return end - begin; }
};

/// The sorted work structure consumed by Step 3 (software or hardware).
struct TileWorkload {
  TileGrid grid;
  std::vector<TileInstance> instances;  ///< sorted by key
  std::vector<TileRange> ranges;        ///< one per tile

  std::uint64_t instance_count() const { return instances.size(); }
};

struct SortStats {
  std::uint64_t splats_in = 0;
  std::uint64_t instances = 0;     ///< after duplication
  double instances_per_splat = 0;  ///< duplication factor
};

/// How a splat's tile footprint is computed during duplication.
///
/// kBoundingBox is the reference implementation's behaviour: a square of
/// side 2*radius (3 sigma of the major axis) around the mean. kTightEllipse
/// replaces it with the axis-aligned extent of the region where alpha can
/// reach alpha_min — still strictly conservative (never drops a contributing
/// pixel, so images are unchanged) but much tighter for anisotropic or faint
/// splats. This is the shape-aware culling idea dedicated accelerators like
/// GSCore implement in hardware; here it is a Step-2 software refinement the
/// paper lists as orthogonal future work.
enum class CullingMode {
  kBoundingBox,
  kTightEllipse,
};

/// Order-preserving key for a positive depth: monotone in depth. Depth
/// validity (>= 0, not NaN) is checked once per workload build by
/// validate_splat_depths(), not per call — this is hot-loop code, so it
/// carries only a debug assert.
std::uint32_t depth_key_bits(float depth);

/// One-time validation at workload build: every splat depth must be
/// non-negative (and not NaN) for depth_key_bits' bit-pattern ordering to
/// hold. Throws gaurast::Error naming the first offending splat index.
/// Called by sort_splats before any key is built.
void validate_splat_depths(const std::vector<Splat2D>& splats);

/// Axis-aligned half-extents (rx, ry) of the region where this splat's
/// alpha can reach `alpha_min`; used by kTightEllipse. Returns false when
/// the splat can never reach alpha_min (fully culled).
bool tight_splat_extent(const Splat2D& splat, float alpha_min, float& rx,
                        float& ry);

/// Runs Step 2: duplication, binning and per-tile depth sort.
///
/// One algorithm for every thread count, in four passes: each of
/// min(num_threads, splats) workers duplicates a contiguous splat chunk
/// and counts its instances per tile; the counts become exact per-tile
/// write offsets, which double as the final TileRanges; the workers
/// scatter their instances straight into tile buckets; and each tile's
/// bucket is sorted by depth key with a stable sort. Instances are
/// ordered by (tile, depth) with splat order breaking ties, so the result
/// does not depend on `num_threads`. A lone worker runs on the calling
/// thread.
TileWorkload sort_splats(const std::vector<Splat2D>& splats,
                         const TileGrid& grid, SortStats* stats = nullptr,
                         CullingMode mode = CullingMode::kBoundingBox,
                         float alpha_min = 1.0f / 255.0f, int num_threads = 1);

}  // namespace gaurast::pipeline
