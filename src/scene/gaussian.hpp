// 3D Gaussian scene representation (paper Sec. II-A).
//
// A scene is a set of elliptical 3D Gaussians, each with position, per-axis
// scale, orientation quaternion, opacity, and spherical-harmonic color
// coefficients. Storage is struct-of-arrays: the preprocessing stage streams
// each attribute linearly, and workload byte counts for the GPU cost model
// are computed from these layouts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gsmath/quat.hpp"
#include "gsmath/sh.hpp"
#include "gsmath/vec.hpp"

namespace gaurast::scene {

/// One Gaussian in array-of-structs form, used at construction / IO
/// boundaries; hot loops use the SoA accessors on GaussianScene.
struct Gaussian3D {
  Vec3f position;
  Vec3f scale{0.01f, 0.01f, 0.01f};  ///< per-axis stddev, world units, >= 0
  Quatf rotation = Quatf::identity();
  float opacity = 1.0f;  ///< in [0, 1]
  ShCoefficients sh{};   ///< RGB SH coefficients, band-major
};

/// Axis-aligned bounding box.
struct Aabb {
  Vec3f lo{0, 0, 0};
  Vec3f hi{0, 0, 0};
  bool valid = false;

  void expand(Vec3f p);
  Vec3f center() const { return (lo + hi) * 0.5f; }
  Vec3f extent() const { return hi - lo; }
};

/// SoA Gaussian container with invariant checks on insertion.
class GaussianScene {
 public:
  GaussianScene() = default;
  explicit GaussianScene(int sh_degree);

  /// Builds a scene from whole columns, one entry per Gaussian in each.
  /// add()'s checks and rotation normalization run as one pass over them,
  /// so the result equals add()ing the same Gaussians in order.
  static GaussianScene from_columns(int sh_degree,
                                    std::vector<Vec3f> positions,
                                    std::vector<Vec3f> scales,
                                    std::vector<Quatf> rotations,
                                    std::vector<float> opacities,
                                    std::vector<ShCoefficients> sh);

  /// Appends one Gaussian; validates opacity/scale ranges.
  void add(const Gaussian3D& g);

  void reserve(std::size_t n);
  std::size_t size() const { return positions_.size(); }
  bool empty() const { return positions_.empty(); }
  int sh_degree() const { return sh_degree_; }

  const std::vector<Vec3f>& positions() const { return positions_; }
  const std::vector<Vec3f>& scales() const { return scales_; }
  const std::vector<Quatf>& rotations() const { return rotations_; }
  const std::vector<float>& opacities() const { return opacities_; }
  const std::vector<ShCoefficients>& sh() const { return sh_; }

  /// Writable SH coefficients, for producers that fill them in place after
  /// add() (the generator draws view-dependent bands in parallel).
  std::span<ShCoefficients> mutable_sh() { return sh_; }

  /// Reconstructs the AoS view of Gaussian i (IO / debugging).
  Gaussian3D gaussian(std::size_t i) const;

  /// Bounding box over all positions.
  Aabb bounds() const;

  /// Bytes of attribute data read per Gaussian by preprocessing:
  /// pos(3) + scale(3) + rot(4) + opacity(1) + SH((deg+1)^2 * 3) floats.
  std::size_t bytes_per_gaussian() const;

  /// Importance-pruned copy keeping the `keep_count` Gaussians with the
  /// largest opacity * volume product — our stand-in for the Mini-Splatting
  /// (Fang & Wang 2024) constrained-budget representation used by the
  /// paper's "efficiency-optimized pipeline" experiments.
  GaussianScene pruned(std::size_t keep_count) const;

 private:
  int sh_degree_ = 3;
  std::vector<Vec3f> positions_;
  std::vector<Vec3f> scales_;
  std::vector<Quatf> rotations_;
  std::vector<float> opacities_;
  std::vector<ShCoefficients> sh_;
};

}  // namespace gaurast::scene
