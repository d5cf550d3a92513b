// Output checks, run outside the timed window: image hashes against an
// independent oracle, modeled Step-3 times against a direct hardware-model
// render, and the paper's headline averages against their pinned values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/device.hpp"
#include "gsmath/image.hpp"
#include "scene/camera.hpp"
#include "scene/store.hpp"

namespace perfbench {

/// FNV-1a over the bit patterns of `count` floats.
std::uint64_t hash_floats(const float* data, std::size_t count);
/// The same hash over an image's RGB floats, so an in-process image and its
/// wire payload hash alike.
std::uint64_t hash_image(const gaurast::Image& image);

/// Independent renders of a request. Scenes resolve through an unbounded
/// store over the synthetic source, so the oracle renders the same
/// dequantized scene the service rendered. Thread-safe.
class Oracle {
 public:
  Oracle();

  /// The dequantized working copy the service renders for `scene_key`.
  std::shared_ptr<const gaurast::scene::GaussianScene> scene(
      const std::string& scene_key) {
    return store_.acquire(scene_key);
  }

  /// Hash of the scalar reference-kernel software image: the oracle for
  /// the fast kernel, and for the GauRast FP32 model, which is
  /// bit-identical to software.
  std::uint64_t reference_hash(const std::string& scene_key,
                               const gaurast::scene::Camera& camera);

  struct HwFrame {
    double raster_model_ms = 0.0;
    std::uint64_t hash = 0;
  };
  /// A direct render on the default GauRast device (the paper's 300-PE
  /// FP32 design on an Orin NX host).
  HwFrame hardware_frame(const std::string& scene_key,
                         const gaurast::scene::Camera& camera);

 private:
  gaurast::scene::SceneStore store_;
  gaurast::core::GauRastDevice device_;
};

/// The `gaurast_cli report` averages over the seven NeRF-360 profiles.
struct PaperAverages {
  double raster_speedup = 0.0;
  double pipelined_fps = 0.0;
  double end_to_end_speedup = 0.0;
};

PaperAverages compute_paper_averages();

/// The values recorded when this benchmark was defined (23.9x raster,
/// 24.0 FPS, 6.0x end to end, to every digit). A model change that moves
/// any of them fails the run.
PaperAverages pinned_paper_averages();

}  // namespace perfbench
