// Tests for the extension subsystems: 3DGS PLY interop, SSIM, workload
// traces, tight ellipse culling, and DVFS energy scaling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/detailed_sim.hpp"
#include "core/config_io.hpp"
#include "core/energy.hpp"
#include "core/scheduler.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/trace.hpp"
#include "gsmath/ssim.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"
#include "scene/ply_io.hpp"

namespace gaurast {
namespace {

// ----------------------------------------------------------------- PLY --

TEST(PlyIo, RoundTripPreservesSceneWithinCheckpointPrecision) {
  scene::GeneratorParams params;
  params.gaussian_count = 128;
  const scene::GaussianScene original = scene::generate_scene(params);
  const std::string path = ::testing::TempDir() + "/roundtrip.ply";
  scene::save_ply(original, path);
  const scene::GaussianScene loaded = scene::load_ply(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.sh_degree(), 3);
  for (std::size_t i = 0; i < original.size(); i += 7) {
    EXPECT_EQ(loaded.positions()[i], original.positions()[i]);
    // Opacity goes through logit/sigmoid, scales through log/exp.
    EXPECT_NEAR(loaded.opacities()[i], original.opacities()[i], 1e-5f);
    EXPECT_NEAR(loaded.scales()[i].x, original.scales()[i].x,
                original.scales()[i].x * 1e-4f + 1e-6f);
    EXPECT_EQ(loaded.sh()[i][0], original.sh()[i][0]);
    EXPECT_NEAR(loaded.sh()[i][5].y, original.sh()[i][5].y, 1e-6f);
  }
  std::remove(path.c_str());
}

TEST(PlyIo, LoadedSceneRendersIdentically) {
  scene::GeneratorParams params;
  params.gaussian_count = 1000;
  const scene::GaussianScene original = scene::generate_scene(params);
  const std::string path = ::testing::TempDir() + "/render.ply";
  scene::save_ply(original, path);
  const scene::GaussianScene loaded = scene::load_ply(path);
  const scene::Camera cam = scene::default_camera(params, 96, 72);
  const pipeline::GaussianRenderer renderer;
  const auto a = renderer.render(original, cam);
  const auto b = renderer.render(loaded, cam);
  // logit/sigmoid and log/exp round-trips cost a few ULPs.
  EXPECT_GT(b.image.psnr(a.image), 55.0);
  std::remove(path.c_str());
}

TEST(PlyIo, SigmoidLogitInverse) {
  for (float p : {0.01f, 0.2f, 0.5f, 0.73f, 0.99f}) {
    EXPECT_NEAR(scene::ply_sigmoid(scene::ply_logit(p)), p, 1e-6f);
  }
}

TEST(PlyIo, RejectsNonPlyFile) {
  const std::string path = ::testing::TempDir() + "/notply.ply";
  {
    std::ofstream os(path);
    os << "definitely not a ply\n";
  }
  EXPECT_THROW(scene::load_ply(path), Error);
  std::remove(path.c_str());
}

TEST(PlyIo, RejectsAsciiFormat) {
  const std::string path = ::testing::TempDir() + "/ascii.ply";
  {
    std::ofstream os(path);
    os << "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
          "end_header\n0.0\n";
  }
  EXPECT_THROW(scene::load_ply(path), Error);
  std::remove(path.c_str());
}

TEST(PlyIo, RejectsMissingProperties) {
  const std::string path = ::testing::TempDir() + "/short.ply";
  {
    std::ofstream os(path, std::ios::binary);
    os << "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
          "property float x\nproperty float y\nproperty float z\n"
          "end_header\n";
    const float xyz[3] = {0, 0, 0};
    os.write(reinterpret_cast<const char*>(xyz), sizeof(xyz));
  }
  EXPECT_THROW(scene::load_ply(path), Error);
  std::remove(path.c_str());
}

TEST(PlyIo, TruncatedPayloadThrows) {
  scene::GeneratorParams params;
  params.gaussian_count = 8;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const std::string path = ::testing::TempDir() + "/trunc.ply";
  scene::save_ply(sc, path);
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const auto full = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::string content(full, '\0');
  is.read(content.data(), static_cast<std::streamsize>(full));
  is.close();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(content.data(), static_cast<std::streamsize>(content.size() - 64));
  os.close();
  EXPECT_THROW(scene::load_ply(path), Error);

  // A header promising more vertices than any payload could hold is
  // refused before anything is sized from the count.
  os.open(path, std::ios::binary | std::ios::trunc);
  os << "ply\nformat binary_little_endian 1.0\n"
        "element vertex 18446744073709551615\n";
  for (const char* name : {"x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2",
                           "opacity", "scale_0", "scale_1", "scale_2",
                           "rot_0", "rot_1", "rot_2", "rot_3"}) {
    os << "property float " << name << "\n";
  }
  os << "end_header\n" << std::string(14 * sizeof(float), '\0');
  os.close();
  EXPECT_THROW(scene::load_ply(path), Error);
  EXPECT_THROW(scene::load_ply_quantized(path), Error);
  std::remove(path.c_str());
}

/// Writes a one-vertex binary PLY whose float properties are all 1.
void write_one_vertex_ply(const std::string& path,
                          const std::vector<std::string>& properties) {
  std::ofstream os(path, std::ios::binary);
  os << "ply\nformat binary_little_endian 1.0\nelement vertex 1\n";
  for (const std::string& name : properties) {
    os << "property float " << name << "\n";
  }
  os << "end_header\n";
  const std::vector<float> row(properties.size(), 1.0f);
  os.write(reinterpret_cast<const char*>(row.data()),
           static_cast<std::streamsize>(row.size() * sizeof(float)));
}

/// The loaders read the `prefix` run (`length` consecutive names) from its
/// first name's index. Checks that both refuse the run cut short at the end
/// of the row or out of order, and load it whole.
void expect_run_checked(const std::string& prefix, std::size_t length) {
  std::vector<std::string> other = {"x", "y", "z", "opacity"};
  const std::pair<std::string, std::size_t> runs[] = {
      {"f_dc_", 3}, {"scale_", 3}, {"rot_", 4}};
  for (const auto& [name, n] : runs) {
    if (name == prefix) continue;
    for (std::size_t k = 0; k < n; ++k) {
      other.push_back(name + std::to_string(k));
    }
  }
  std::vector<std::string> whole = other;
  for (std::size_t k = 0; k < length; ++k) {
    whole.push_back(prefix + std::to_string(k));
  }
  std::vector<std::string> cut(whole.begin(), whole.end() - 1);
  std::vector<std::string> swapped = whole;
  std::swap(swapped[swapped.size() - 1], swapped[swapped.size() - 2]);

  const std::string path = ::testing::TempDir() + "/run_" + prefix + ".ply";
  write_one_vertex_ply(path, whole);
  EXPECT_NO_THROW(scene::load_ply(path));
  EXPECT_NO_THROW(scene::load_ply_quantized(path));
  for (const auto& broken : {cut, swapped}) {
    write_one_vertex_ply(path, broken);
    EXPECT_THROW(scene::load_ply(path), Error);
    EXPECT_THROW(scene::load_ply_quantized(path), Error);
  }
  std::remove(path.c_str());
}

TEST(PlyIo, RejectsBrokenDcRun) { expect_run_checked("f_dc_", 3); }

TEST(PlyIo, RejectsBrokenScaleRun) { expect_run_checked("scale_", 3); }

TEST(PlyIo, RejectsBrokenRotationRun) { expect_run_checked("rot_", 4); }

TEST(PlyIo, RejectsBrokenRestRun) { expect_run_checked("f_rest_", 45); }

// ---------------------------------------------------------------- SSIM --

TEST(Ssim, IdenticalImagesScoreOne) {
  Image img(32, 32, {0.4f, 0.5f, 0.6f});
  img.at(10, 10) = {0.9f, 0.1f, 0.2f};
  EXPECT_NEAR(ssim(img, img), 1.0, 1e-9);
}

TEST(Ssim, DegradesWithNoise) {
  scene::GeneratorParams params;
  params.gaussian_count = 2000;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const pipeline::GaussianRenderer renderer;
  const auto frame = renderer.render(sc, scene::default_camera(params, 96, 72));
  Image noisy = frame.image;
  Pcg32 rng(1);
  for (auto& px : noisy.pixels()) {
    px.x = clampf(px.x + static_cast<float>(rng.normal(0.0, 0.1)), 0.0f, 1.0f);
  }
  const double s = ssim(frame.image, noisy);
  EXPECT_LT(s, 0.99);
  EXPECT_GT(s, 0.1);
}

TEST(Ssim, ConstantShiftScoresHigherThanStructuredError) {
  Image base(32, 32, {0.5f, 0.5f, 0.5f});
  Pcg32 rng(2);
  for (auto& px : base.pixels()) {
    px = {static_cast<float>(rng.uniform(0.2, 0.8)),
          static_cast<float>(rng.uniform(0.2, 0.8)),
          static_cast<float>(rng.uniform(0.2, 0.8))};
  }
  Image shifted = base;
  for (auto& px : shifted.pixels()) px += {0.05f, 0.05f, 0.05f};
  Image scrambled = base;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; x += 2) {
      std::swap(scrambled.at(x, y), scrambled.at(31 - x, 31 - y));
    }
  }
  EXPECT_GT(ssim(base, shifted), ssim(base, scrambled));
}

TEST(Ssim, RequiresMatchingAndMinimumSize) {
  Image a(16, 16), b(32, 32), tiny(4, 4);
  EXPECT_THROW(ssim(a, b), Error);
  EXPECT_THROW(ssim(tiny, tiny), Error);
}

TEST(Ssim, Fp16HardwareQualityHigh) {
  scene::GeneratorParams params;
  params.gaussian_count = 2000;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 128, 96);
  const pipeline::GaussianRenderer renderer;
  const auto frame = renderer.render(sc, cam);
  const core::HardwareRasterizer hw(core::RasterizerConfig::fp16(16));
  const auto r = hw.rasterize_gaussians(frame.splats, frame.workload,
                                        renderer.config().blend);
  EXPECT_GT(ssim(r.image, frame.image), 0.98);
}

// --------------------------------------------------------------- Trace --

TEST(Trace, SaveLoadRoundTrip) {
  std::vector<core::TileLoad> tiles;
  for (std::uint64_t i = 0; i < 100; ++i) {
    tiles.push_back({i * 13 + 1, i * 97 + 36});
  }
  const std::string path = ::testing::TempDir() + "/loads.gtr";
  core::save_trace(tiles, path);
  const auto loaded = core::load_trace(path);
  ASSERT_EQ(loaded.size(), tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(loaded[i].pairs, tiles[i].pairs);
    EXPECT_EQ(loaded[i].fill_bytes, tiles[i].fill_bytes);
  }
  std::remove(path.c_str());
}

TEST(Trace, SummaryMatchesTotals) {
  std::vector<core::TileLoad> tiles{{10, 100}, {30, 300}, {20, 200}};
  const core::TraceSummary s = core::summarize_trace(tiles);
  EXPECT_EQ(s.tiles, 3u);
  EXPECT_EQ(s.total_pairs, 60u);
  EXPECT_EQ(s.total_fill_bytes, 600u);
  EXPECT_EQ(s.max_tile_pairs, 30u);
  EXPECT_DOUBLE_EQ(s.mean_tile_pairs, 20.0);
}

TEST(Trace, CapturedFromHardwareAndReplayedMatchesTiming) {
  scene::GeneratorParams params;
  params.gaussian_count = 1500;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const pipeline::GaussianRenderer renderer;
  const auto frame = renderer.render(sc, scene::default_camera(params, 96, 72));
  const core::RasterizerConfig cfg = core::RasterizerConfig::prototype16();
  const core::HardwareRasterizer hw(cfg);
  const auto r = hw.rasterize_gaussians(frame.splats, frame.workload,
                                        renderer.config().blend);
  ASSERT_FALSE(r.tile_loads.empty());

  const std::string path = ::testing::TempDir() + "/capture.gtr";
  core::save_trace(r.tile_loads, path);
  const auto replayed = core::load_trace(path);
  const core::DesignTimelineResult timing = core::replay_trace(replayed, cfg);
  EXPECT_EQ(timing.makespan_cycles, r.timing.makespan_cycles);
  EXPECT_EQ(timing.pairs, r.timing.pairs);
  std::remove(path.c_str());
}

TEST(Trace, ReplayOnLargerConfigIsFaster) {
  std::vector<core::TileLoad> tiles(64, core::TileLoad{4000, 2048});
  core::RasterizerConfig small = core::RasterizerConfig::prototype16();
  core::RasterizerConfig big = small;
  big.module_count = 4;
  EXPECT_LT(core::replay_trace(tiles, big).makespan_cycles,
            core::replay_trace(tiles, small).makespan_cycles);
}

TEST(Trace, TileCountBeyondThePayloadThrows) {
  // A count of 2^64-1 over one tile's bytes is an error naming the file,
  // not an allocation sized from the count.
  const std::string path = ::testing::TempDir() + "/huge.gtr";
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint64_t count = ~std::uint64_t{0};
    os.write("GTR1", 4);
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    os << std::string(16, '\0');
  }
  try {
    core::load_trace(path);
    ADD_FAILURE() << "load_trace accepted a truncated trace";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Trace, BadMagicThrows) {
  const std::string path = ::testing::TempDir() + "/bad.gtr";
  {
    std::ofstream os(path, std::ios::binary);
    os << "XXXXjunk";
  }
  EXPECT_THROW(core::load_trace(path), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------------- Tight culling --

TEST(TightCulling, ExtentSubsetOfBoundingRadius) {
  pipeline::Splat2D s;
  s.conic = {0.08f, 0.02f, 0.3f};
  s.opacity = 0.8f;
  // radius from the inverse covariance's major eigenvalue, as preprocess
  // computes it.
  const float det = s.conic.a * s.conic.c - s.conic.b * s.conic.b;
  Cov2 cov{s.conic.c / det, -s.conic.b / det, s.conic.a / det};
  s.radius = splat_radius(cov);
  float rx = 0, ry = 0;
  ASSERT_TRUE(pipeline::tight_splat_extent(s, 1.0f / 255.0f, rx, ry));
  EXPECT_LE(rx, s.radius + 1.0f);
  EXPECT_LE(ry, s.radius + 1.0f);
  // Anisotropic conic (c >> a): tighter vertically.
  EXPECT_LT(ry, rx);
}

TEST(TightCulling, FaintSplatFullyCulled) {
  pipeline::Splat2D s;
  s.conic = {0.5f, 0.0f, 0.5f};
  s.opacity = 0.001f;  // can never reach 1/255? 0.001 < 1/255 ~ 0.0039
  float rx, ry;
  EXPECT_FALSE(pipeline::tight_splat_extent(s, 1.0f / 255.0f, rx, ry));
}

TEST(TightCulling, ReducesInstancesAndPairs) {
  scene::GeneratorParams params;
  params.gaussian_count = 3000;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 128, 96);
  pipeline::RendererConfig loose;
  pipeline::RendererConfig tight;
  tight.culling = pipeline::CullingMode::kTightEllipse;
  const auto f_loose = pipeline::GaussianRenderer(loose).render(sc, cam);
  const auto f_tight = pipeline::GaussianRenderer(tight).render(sc, cam);
  EXPECT_LT(f_tight.workload.instance_count(),
            f_loose.workload.instance_count());
  EXPECT_LT(f_tight.raster_stats.pairs_evaluated,
            f_loose.raster_stats.pairs_evaluated);
}

TEST(TightCulling, ImageUnchangedBecauseConservative) {
  scene::GeneratorParams params;
  params.gaussian_count = 2500;
  params.seed = 9;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 112, 80);
  pipeline::RendererConfig loose;
  pipeline::RendererConfig tight;
  tight.culling = pipeline::CullingMode::kTightEllipse;
  const auto f_loose = pipeline::GaussianRenderer(loose).render(sc, cam);
  const auto f_tight = pipeline::GaussianRenderer(tight).render(sc, cam);
  // Tight culling only removes pairs below the alpha threshold... except
  // where early termination order interacts: removing a non-contributing
  // pair never changes T, so images must match exactly.
  EXPECT_EQ(f_tight.image.max_abs_diff(f_loose.image), 0.0f);
}

TEST(TightCulling, HardwareStillBitExact) {
  scene::GeneratorParams params;
  params.gaussian_count = 1500;
  const scene::GaussianScene sc = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 96, 72);
  pipeline::RendererConfig rc;
  rc.culling = pipeline::CullingMode::kTightEllipse;
  const pipeline::GaussianRenderer renderer(rc);
  const auto frame = renderer.render(sc, cam);
  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
  const auto r = hw.rasterize_gaussians(frame.splats, frame.workload, rc.blend);
  EXPECT_EQ(r.image.max_abs_diff(frame.image), 0.0f);
}

// ---------------------------------------------------------------- DVFS --

TEST(Dvfs, NominalPointUnchanged) {
  const core::EnergyTable base{};
  const core::EnergyTable same = core::dvfs_scaled_table(base, 1.0);
  EXPECT_DOUBLE_EQ(same.fp_mul_pj, base.fp_mul_pj);
  EXPECT_DOUBLE_EQ(same.module_leakage_w, base.module_leakage_w);
}

TEST(Dvfs, VoltageMonotoneInClockAndClamped) {
  const core::EnergyTable base{};
  EXPECT_LT(core::dvfs_voltage(base, 0.5), core::dvfs_voltage(base, 1.0));
  EXPECT_LT(core::dvfs_voltage(base, 1.0), core::dvfs_voltage(base, 1.5));
  EXPECT_GE(core::dvfs_voltage(base, 0.01), 0.7);
  EXPECT_LE(core::dvfs_voltage(base, 10.0), 1.2);
}

TEST(Dvfs, LowerClockLowersEnergyPerOp) {
  const core::EnergyTable base{};
  const core::EnergyTable slow = core::dvfs_scaled_table(base, 0.6);
  const core::EnergyTable fast = core::dvfs_scaled_table(base, 1.4);
  EXPECT_LT(slow.fp_mul_pj, base.fp_mul_pj);
  EXPECT_GT(fast.fp_mul_pj, base.fp_mul_pj);
  EXPECT_LT(slow.module_leakage_w, fast.module_leakage_w);
}

TEST(Dvfs, IsoThroughputWideSlowBeatsNarrowFast) {
  // Classic DVFS result: 2x the PEs at half the clock burn less energy for
  // the same throughput, because dynamic energy scales with V^2.
  core::RasterizerConfig narrow = core::RasterizerConfig::prototype16();
  narrow.clock_ghz = 1.0;
  core::RasterizerConfig wide = narrow;
  wide.pes_per_module = 32;
  wide.clock_ghz = 0.5;
  const core::EnergyModel narrow_model(
      narrow, core::dvfs_scaled_table({}, narrow.clock_ghz));
  const core::EnergyModel wide_model(
      wide, core::dvfs_scaled_table({}, wide.clock_ghz));
  // Same pair throughput; compare energy for a fixed pair count.
  const auto e_narrow =
      narrow_model.from_pair_statistics(1'000'000'000, 0.15, 0, 62.5);
  const auto e_wide =
      wide_model.from_pair_statistics(1'000'000'000, 0.15, 0, 62.5);
  EXPECT_LT(e_wide.datapath_mj, e_narrow.datapath_mj);
}

TEST(Dvfs, InvalidClockThrows) {
  EXPECT_THROW(core::dvfs_voltage({}, 0.0), Error);
}

// ----------------------------------------------------------- Config IO --

TEST(ConfigIo, RoundTripAllFields) {
  core::RasterizerConfig cfg = core::RasterizerConfig::fp16(24, 3);
  cfg.clock_ghz = 1.2;
  cfg.tile_size = 32;
  cfg.tile_buffer_bytes = 128 * 1024;
  cfg.mem_bytes_per_cycle = 48.0;
  cfg.mem_latency = 17;
  cfg.pipeline_depth = 6;
  const std::string path = ::testing::TempDir() + "/rast.cfg";
  core::save_config(cfg, path);
  const core::RasterizerConfig loaded = core::load_config(path);
  EXPECT_EQ(loaded.pes_per_module, cfg.pes_per_module);
  EXPECT_EQ(loaded.module_count, cfg.module_count);
  EXPECT_DOUBLE_EQ(loaded.clock_ghz, cfg.clock_ghz);
  EXPECT_EQ(loaded.precision, cfg.precision);
  EXPECT_EQ(loaded.tile_size, cfg.tile_size);
  EXPECT_EQ(loaded.tile_buffer_bytes, cfg.tile_buffer_bytes);
  EXPECT_DOUBLE_EQ(loaded.mem_bytes_per_cycle, cfg.mem_bytes_per_cycle);
  EXPECT_EQ(loaded.mem_latency, cfg.mem_latency);
  EXPECT_EQ(loaded.pipeline_depth, cfg.pipeline_depth);
  std::remove(path.c_str());
}

TEST(ConfigIo, PartialFileKeepsDefaults) {
  const std::string path = ::testing::TempDir() + "/partial.cfg";
  {
    std::ofstream os(path);
    os << "# only override the module count\nmodule_count = 15\n";
  }
  const core::RasterizerConfig loaded = core::load_config(path);
  EXPECT_EQ(loaded.module_count, 15);
  EXPECT_EQ(loaded.pes_per_module, 16);  // prototype default
  std::remove(path.c_str());
}

TEST(ConfigIo, UnknownKeyAndBadValueThrow) {
  const std::string path = ::testing::TempDir() + "/bad.cfg";
  {
    std::ofstream os(path);
    os << "warp_drive = 9\n";
  }
  EXPECT_THROW(core::load_config(path), Error);
  {
    std::ofstream os(path);
    os << "clock_ghz = fast\n";
  }
  EXPECT_THROW(core::load_config(path), Error);
  {
    std::ofstream os(path);
    os << "precision = fp8\n";
  }
  EXPECT_THROW(core::load_config(path), Error);
  std::remove(path.c_str());
}

TEST(ConfigIo, LoadedConfigIsValidated) {
  const std::string path = ::testing::TempDir() + "/invalid.cfg";
  {
    std::ofstream os(path);
    os << "pes_per_module = 0\n";
  }
  EXPECT_THROW(core::load_config(path), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------------ Pipeline series --

TEST(PipelineSeries, UniformWorkloadMatchesClosedForm) {
  std::vector<core::FrameWork> frames(30, core::FrameWork{20.0, 8.0});
  const core::PipelineSeriesResult r = core::simulate_pipeline_series(frames);
  ASSERT_EQ(r.completion_ms.size(), 30u);
  // Steady-state interval is max(stage12, stage3) = 20 ms.
  EXPECT_NEAR(r.interval_ms.back(), 20.0, 1e-9);
  // One fill of both stages, then 29 stage-12-bound intervals.
  EXPECT_NEAR(r.completion_ms.back(), 20.0 + 8.0 + 29 * 20.0, 1e-9);
}

TEST(PipelineSeries, JitterReflectsWorkloadVariation) {
  std::vector<core::FrameWork> uniform(50, core::FrameWork{20.0, 30.0});
  std::vector<core::FrameWork> bursty = uniform;
  for (std::size_t i = 0; i < bursty.size(); i += 10) {
    bursty[i].stage3_ms = 60.0;  // every 10th frame is heavy
  }
  const auto ru = core::simulate_pipeline_series(uniform);
  const auto rb = core::simulate_pipeline_series(bursty);
  EXPECT_GT(rb.p99_interval_ms(), ru.p99_interval_ms());
  EXPECT_GT(rb.mean_interval_ms(), ru.mean_interval_ms());
}

TEST(PipelineSeries, IntervalsSumToCompletion) {
  std::vector<core::FrameWork> frames{{10, 5}, {8, 20}, {12, 3}, {9, 9}};
  const auto r = core::simulate_pipeline_series(frames);
  double sum = 0.0;
  for (double v : r.interval_ms) sum += v;
  EXPECT_NEAR(sum, r.completion_ms.back(), 1e-9);
}

TEST(PipelineSeries, EmptyOrNegativeRejected) {
  EXPECT_THROW(core::simulate_pipeline_series({}), Error);
  EXPECT_THROW(core::simulate_pipeline_series({{-1.0, 5.0}}), Error);
}

}  // namespace
}  // namespace gaurast
