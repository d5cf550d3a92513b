// SSIM between two RGB images.  // lint-invariants: allow(orphan-header)
//
// Structural similarity. No program includes it: it is the image-quality
// oracle the FP16-variant quality tests compare against. PSNR alone
// under-reports structured error, and the 3DGS literature reports SSIM
// alongside PSNR.
// This is the standard single-scale SSIM with an 8x8 sliding window
// (stride 4) over the per-pixel luminance, K1 = 0.01, K2 = 0.03, L = 1.
#pragma once

#include "gsmath/image.hpp"

namespace gaurast {

/// Mean SSIM over the luminance channel; 1.0 for identical images.
/// Images must have equal dimensions of at least 8x8.
double ssim(const Image& a, const Image& b);

}  // namespace gaurast
