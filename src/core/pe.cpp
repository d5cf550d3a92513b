#include "core/pe.hpp"

#include "common/half.hpp"

namespace gaurast::core {

GaussianPairResult pe_gaussian_pair(const pipeline::Splat2D& splat,
                                    Vec2f pixel,
                                    pipeline::PixelBlendState& state,
                                    const pipeline::BlendParams& params,
                                    Precision precision, OpCounts& counters) {
  const GaussianPairResult result =
      precision == Precision::kFp16
          ? gaussian_datapath<Precision::kFp16>(splat, pixel, state, params)
          : gaussian_datapath<Precision::kFp32>(splat, pixel, state, params);
  counters += gaussian_pair_ops(result.outcome);
  return result;
}

bool pe_triangle_pair(const mesh::ScreenTriangle& tri, Vec2f pixel,
                      float& depth_state, Vec3f& color_state,
                      Precision precision, OpCounts& counters) {
  // The functional math mirrors mesh::eval_triangle_at exactly (FP32) so
  // hardware images equal the reference renderer. The *counted* ops use the
  // hardware form: three incremental edge updates per pixel step.
  const mesh::TriangleFragment frag = mesh::eval_triangle_at(tri, pixel);
  if (!frag.inside) {
    counters += kTriangleMissOps;
    return false;
  }
  counters += kTriangleHitOps;

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

}  // namespace gaurast::core
