#include "core/pe.hpp"

#include <utility>

#include "common/half.hpp"

namespace gaurast::core {

namespace {

using sim::ops::kFp32Add;
using sim::ops::kFp32Cmp;
using sim::ops::kFp32Div;
using sim::ops::kFp32Exp;
using sim::ops::kFp32Mul;

}  // namespace

void charge_gaussian_ops(const GaussianOutcomeCounts& pairs,
                         sim::CounterSet& counters) {
  GaussianPairOps total;
  for (std::size_t o = 0; o < kGaussianOutcomes; ++o) {
    total.adds += pairs[o] * kGaussianPairOps[o].adds;
    total.muls += pairs[o] * kGaussianPairOps[o].muls;
    total.exps += pairs[o] * kGaussianPairOps[o].exps;
    total.cmps += pairs[o] * kGaussianPairOps[o].cmps;
  }
  const std::pair<const char*, std::uint64_t> charges[] = {
      {kFp32Add, total.adds},
      {kFp32Mul, total.muls},
      {kFp32Exp, total.exps},
      {kFp32Cmp, total.cmps}};
  for (const auto& [name, count] : charges) {
    if (count != 0) counters.increment(name, count);
  }
}

GaussianPairResult pe_gaussian_pair(const pipeline::Splat2D& splat,
                                    Vec2f pixel,
                                    pipeline::PixelBlendState& state,
                                    const pipeline::BlendParams& params,
                                    Precision precision,
                                    sim::CounterSet& counters) {
  const GaussianPairResult result =
      precision == Precision::kFp16
          ? gaussian_datapath<Precision::kFp16>(splat, pixel, state, params)
          : gaussian_datapath<Precision::kFp32>(splat, pixel, state, params);
  GaussianOutcomeCounts pairs{};
  pairs[static_cast<std::size_t>(result.outcome)] = 1;
  charge_gaussian_ops(pairs, counters);
  return result;
}

bool pe_triangle_pair(const mesh::ScreenTriangle& tri, Vec2f pixel,
                      float& depth_state, Vec3f& color_state,
                      Precision precision, sim::CounterSet& counters) {
  // The functional math mirrors mesh::eval_triangle_at exactly (FP32) so
  // hardware images equal the reference renderer. The *counted* ops use the
  // hardware form: three incremental edge updates per pixel step.
  const mesh::TriangleFragment frag = mesh::eval_triangle_at(tri, pixel);
  counters.increment(kFp32Add, 3);   // edge increments
  counters.increment(kFp32Cmp, 3);   // inside tests
  if (!frag.inside) return false;

  // Barycentric weights (3 muls by 1/2A from setup) + attribute
  // interpolation (depth 3 muls/2 adds handled below, color 3 MACs counted
  // as the remaining shared-unit work).
  counters.increment(kFp32Mul, 9);
  counters.increment(kFp32Add, 6);
  counters.increment(kFp32Cmp, 1);   // depth compare

  float depth = frag.depth;
  Vec3f color = frag.color;
  if (precision == Precision::kFp16) {
    depth = round_to_half(depth);
    color = {round_to_half(color.x), round_to_half(color.y),
             round_to_half(color.z)};
  }
  if (depth < depth_state) {
    depth_state = depth;
    color_state = color;
    return true;
  }
  return false;
}

void pe_triangle_setup(sim::CounterSet& counters) {
  counters.increment(kFp32Div, 1);  // 1 / (2 * area)
  counters.increment(kFp32Mul, 2);
  counters.increment(kFp32Add, 5);
}

}  // namespace gaurast::core
