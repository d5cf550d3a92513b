#include "scene/gaussian.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace gaurast::scene {

void Aabb::expand(Vec3f p) {
  if (!valid) {
    lo = hi = p;
    valid = true;
    return;
  }
  lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
  hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
}

GaussianScene::GaussianScene(int sh_degree) : sh_degree_(sh_degree) {
  GAURAST_CHECK(sh_degree >= 0 && sh_degree <= 3);
}

namespace {

/// The per-Gaussian invariants every way into a scene checks.
void check_gaussian(Vec3f position, Vec3f scale, float opacity) {
  GAURAST_CHECK_MSG(opacity >= 0.0f && opacity <= 1.0f,
                    "opacity " << opacity << " out of [0,1]");
  GAURAST_CHECK_MSG(scale.x >= 0.0f && scale.y >= 0.0f && scale.z >= 0.0f,
                    "negative scale");
  GAURAST_CHECK_MSG(std::isfinite(position.x) && std::isfinite(position.y) &&
                        std::isfinite(position.z),
                    "non-finite position");
}

}  // namespace

GaussianScene GaussianScene::from_columns(int sh_degree,
                                          std::vector<Vec3f> positions,
                                          std::vector<Vec3f> scales,
                                          std::vector<Quatf> rotations,
                                          std::vector<float> opacities,
                                          std::vector<ShCoefficients> sh) {
  const std::size_t n = positions.size();
  GAURAST_CHECK(scales.size() == n && rotations.size() == n &&
                opacities.size() == n && sh.size() == n);
  GaussianScene scene(sh_degree);
  for (std::size_t i = 0; i < n; ++i) {
    check_gaussian(positions[i], scales[i], opacities[i]);
    rotations[i] = rotations[i].normalized();
  }
  scene.positions_ = std::move(positions);
  scene.scales_ = std::move(scales);
  scene.rotations_ = std::move(rotations);
  scene.opacities_ = std::move(opacities);
  scene.sh_ = std::move(sh);
  return scene;
}

void GaussianScene::add(const Gaussian3D& g) {
  check_gaussian(g.position, g.scale, g.opacity);
  positions_.push_back(g.position);
  scales_.push_back(g.scale);
  rotations_.push_back(g.rotation.normalized());
  opacities_.push_back(g.opacity);
  sh_.push_back(g.sh);
}

void GaussianScene::reserve(std::size_t n) {
  positions_.reserve(n);
  scales_.reserve(n);
  rotations_.reserve(n);
  opacities_.reserve(n);
  sh_.reserve(n);
}

Gaussian3D GaussianScene::gaussian(std::size_t i) const {
  GAURAST_CHECK(i < size());
  Gaussian3D g;
  g.position = positions_[i];
  g.scale = scales_[i];
  g.rotation = rotations_[i];
  g.opacity = opacities_[i];
  g.sh = sh_[i];
  return g;
}

Aabb GaussianScene::bounds() const {
  Aabb box;
  for (const Vec3f& p : positions_) box.expand(p);
  return box;
}

std::size_t GaussianScene::bytes_per_gaussian() const {
  const std::size_t sh_floats = sh_basis_count(sh_degree_) * 3;
  return (3 + 3 + 4 + 1 + sh_floats) * sizeof(float);
}

GaussianScene GaussianScene::pruned(std::size_t keep_count) const {
  keep_count = std::min(keep_count, size());
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto importance = [this](std::size_t i) {
    const Vec3f s = scales_[i];
    // Opacity-weighted volume, the usual splat-importance proxy.
    return opacities_[i] * s.x * s.y * s.z;
  };
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep_count),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return importance(a) > importance(b);
                    });
  GaussianScene out(sh_degree_);
  out.reserve(keep_count);
  for (std::size_t k = 0; k < keep_count; ++k) out.add(gaussian(order[k]));
  return out;
}

}  // namespace gaurast::scene
