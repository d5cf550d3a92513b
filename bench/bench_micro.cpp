// bench_micro — microbenchmarks of the substrate implementations: PE
// datapath throughput (`pe_gaussian_pair`: 200k pairs, each adding its
// outcome's row to a `core::OpCounts`), software rasterization (reference
// vs fast kernel), Step-2 tile binning (`sort_serial` on 1 thread,
// `sort_parallel` on --threads), Step-1 preprocessing (`preprocess` on 1
// thread, `preprocess_mt` on --threads), the hardware functional
// model, the triangle reference path, the detailed cycle simulator and a
// scene-store miss (generate, quantize, dequantize). These gauge the
// *simulator's* host-side performance, not modeled hardware numbers.
//
// Self-contained harness (no third-party benchmark dependency): every
// selected benchmark first runs `--warmup` unmeasured iterations, then the
// `--repeat` measured iterations go round-robin over the benchmarks, so a
// noisy stretch of the host lands on both sides of each derived ratio
// alike. Each benchmark reports mean/median/min/max/stddev wall
// milliseconds.
// `--json` emits the machine-readable gaurast-bench-micro/v1 schema the
// tools/bench_pipeline.sh runner aggregates into BENCH_pipeline.json:
//
//   {"schema":"gaurast-bench-micro/v1",
//    "config":{"synthetic":...,"width":...,"height":...,"threads":...,
//              "warmup":...,"repeat":...,"seed":...},
//    "results":[{"name":"raster_reference","repeats":N,"mean_ms":...,
//                "median_ms":...,"min_ms":...,"max_ms":...,
//                "stddev_ms":...}, ...],
//    "derived":{"raster_fast_speedup":R, "sort_parallel_speedup":R,
//               "raster_mt_speedup":R}}
//
// The canonical configuration is the flag defaults (20000 synthetic
// Gaussians at 320x240, warmup 2, repeat 5); the recorded perf trajectory
// in BENCH_pipeline.json is measured at exactly these settings.
//
//   bench_micro [--synthetic N] [--width W] [--height H] [--seed S]
//               [--warmup N] [--repeat N] [--threads T] [--filter SUBSTR]
//               [--json out.json|-]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/detailed_sim.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/pe.hpp"
#include "mesh/primitives.hpp"
#include "mesh/raster.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"
#include "scene/quantized.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;

struct BenchResult {
  std::string name;
  int repeats = 0;
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double stddev_ms = 0.0;
};

struct Benchmark {
  std::string name;
  std::function<void()> fn;
  std::vector<double> samples;  ///< measured wall ms, one per repeat
};

/// Warms every benchmark, then times `repeat` rounds that each run every
/// benchmark once, in registration order.
void measure_round_robin(std::vector<Benchmark>& benches, int warmup,
                         int repeat) {
  for (Benchmark& b : benches) {
    for (int i = 0; i < warmup; ++i) b.fn();
  }
  for (int i = 0; i < repeat; ++i) {
    for (Benchmark& b : benches) {
      const auto t0 = std::chrono::steady_clock::now();
      b.fn();
      b.samples.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
  }
}

BenchResult summarize(const std::string& name, std::vector<double> samples) {
  BenchResult r;
  r.name = name;
  r.repeats = static_cast<int>(samples.size());
  double sum = 0.0;
  r.min_ms = samples.front();
  r.max_ms = samples.front();
  for (double s : samples) {
    sum += s;
    r.min_ms = std::min(r.min_ms, s);
    r.max_ms = std::max(r.max_ms, s);
  }
  r.mean_ms = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  r.median_ms = samples.size() % 2 == 1
                    ? samples[mid]
                    : 0.5 * (samples[mid - 1] + samples[mid]);
  double var = 0.0;
  for (double s : samples) var += (s - r.mean_ms) * (s - r.mean_ms);
  r.stddev_ms = samples.size() > 1
                    ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                    : 0.0;
  return r;
}

// Same fixed-precision formatting bench_service_throughput uses for its
// JSON numbers, so both gaurast-bench-*/v1 reports format identically.
std::string json_number(double v) { return format_fixed(v, 6); }

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_micro");
  cli.add_flag("synthetic", "20000", "synthetic Gaussian count");
  cli.add_flag("width", "320", "render width");
  cli.add_flag("height", "240", "render height");
  cli.add_flag("seed", "42", "scene generator seed");
  cli.add_flag("warmup", "2", "unmeasured iterations per benchmark");
  cli.add_flag("repeat", "5", "measured iterations per benchmark");
  cli.add_flag("threads", "4", "thread count for the *_mt / parallel points");
  cli.add_flag("filter", "", "run only benchmarks whose name contains this");
  cli.add_flag("json", "",
               "write the gaurast-bench-micro/v1 report to this path "
               "('-' for stdout)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const int warmup = cli.get_int("warmup");
    if (warmup < 0) throw CliParseError("--warmup must be >= 0");
    const int repeat = cli.get_positive_int("repeat");
    const int threads = cli.get_positive_int("threads");
    const std::string filter = cli.get_string("filter");

    scene::GeneratorParams params;
    params.gaussian_count =
        static_cast<std::uint64_t>(cli.get_positive_int("synthetic"));
    params.seed = cli.get_uint64("seed");
    const scene::GaussianScene gscene = scene::generate_scene(params);
    const scene::Camera camera = scene::default_camera(
        params, cli.get_positive_int("width"), cli.get_positive_int("height"));

    const pipeline::GaussianRenderer renderer;
    const pipeline::FrameResult frame = renderer.prepare(gscene, camera);
    const pipeline::BlendParams blend = renderer.config().blend;
    pipeline::TileGrid grid;
    grid.width = camera.width();
    grid.height = camera.height();

    std::vector<Benchmark> benches;
    const auto bench = [&](const std::string& name,
                           const std::function<void()>& fn) {
      if (!filter.empty() && name.find(filter) == std::string::npos) return;
      benches.push_back(Benchmark{name, fn, {}});
    };

    bench("pe_gaussian_pair", [&] {
      pipeline::Splat2D splat;
      splat.mean = {10.0f, 10.0f};
      splat.conic = {0.05f, 0.01f, 0.07f};
      splat.opacity = 0.8f;
      splat.color = {0.5f, 0.4f, 0.3f};
      core::OpCounts counters;
      pipeline::PixelBlendState state;
      for (int i = 0; i < 200000; ++i) {
        state = pipeline::PixelBlendState{};
        core::pe_gaussian_pair(splat, {11.0f, 9.0f}, state, blend,
                               core::Precision::kFp32, counters);
      }
    });

    bench("preprocess", [&] {
      auto splats = pipeline::preprocess(gscene, camera);
      (void)splats;
    });
    bench("preprocess_mt", [&] {
      auto splats =
          pipeline::preprocess(gscene, camera, nullptr, nullptr, threads);
      (void)splats;
    });

    bench("sort_serial", [&] {
      auto work = pipeline::sort_splats(frame.splats, grid);
      (void)work;
    });
    bench("sort_parallel", [&] {
      auto work = pipeline::sort_splats(frame.splats, grid, nullptr,
                                        pipeline::CullingMode::kBoundingBox,
                                        blend.alpha_min, threads);
      (void)work;
    });

    // The raster kernel pair the recorded trajectory tracks: both run with
    // stats off on a single thread (serving renders with stats on; the
    // *_stats points time that).
    bench("raster_reference", [&] {
      auto img = pipeline::rasterize(frame.splats, frame.workload, blend,
                                     nullptr, 1,
                                     pipeline::RasterKernel::kReference);
      (void)img;
    });
    bench("raster_fast", [&] {
      auto img = pipeline::rasterize(frame.splats, frame.workload, blend,
                                     nullptr, 1, pipeline::RasterKernel::kFast);
      (void)img;
    });
    bench("raster_reference_stats", [&] {
      pipeline::RasterStats stats;
      auto img = pipeline::rasterize(frame.splats, frame.workload, blend,
                                     &stats, 1,
                                     pipeline::RasterKernel::kReference);
      (void)img;
    });
    bench("raster_fast_stats", [&] {
      pipeline::RasterStats stats;
      auto img = pipeline::rasterize(frame.splats, frame.workload, blend,
                                     &stats, 1, pipeline::RasterKernel::kFast);
      (void)img;
    });
    bench("raster_fast_mt", [&] {
      auto img = pipeline::rasterize(frame.splats, frame.workload, blend,
                                     nullptr, threads,
                                     pipeline::RasterKernel::kFast);
      (void)img;
    });

    // Setup (rasterizer/mesh/tile-load construction) stays outside the
    // timed lambdas so the recorded points measure the operation itself.
    const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
    bench("raster_hw_model", [&] {
      auto r = hw.rasterize_gaussians(frame.splats, frame.workload, blend);
      (void)r;
    });

    const mesh::TriangleMesh sphere = mesh::make_sphere(32, 48);
    bench("triangle_reference", [&] {
      auto out = mesh::render_mesh(sphere, camera);
      (void)out;
    });

    std::vector<core::TileLoad> sim_tiles;
    for (int i = 0; i < 64; ++i) {
      sim_tiles.push_back(core::TileLoad{
          static_cast<std::uint64_t>(2000 + 37 * i),
          static_cast<std::uint64_t>(4096 + 13 * i)});
    }
    bench("detailed_sim", [&] {
      auto r = core::run_detailed_module_sim(
          sim_tiles, core::RasterizerConfig::prototype16());
      (void)r;
    });

    // A scene-store miss as a shard pays it: the synthetic source
    // generates straight into the quantized resting form, then the store
    // dequantizes the working copy.
    const scene::SyntheticSource source;
    const std::string scene_key =
        scene::synthetic_scene_key(params.gaussian_count, params.seed);
    bench("scene_load", [&] {
      auto working = scene::dequantize(source.resolve_quantized(scene_key, 0));
      (void)working;
    });

    measure_round_robin(benches, warmup, repeat);
    std::vector<BenchResult> results;
    for (Benchmark& b : benches) {
      results.push_back(summarize(b.name, std::move(b.samples)));
    }

    const auto median_of = [&](const std::string& name) -> double {
      for (const BenchResult& r : results) {
        if (r.name == name) return r.median_ms;
      }
      return 0.0;
    };
    const auto ratio = [](double a, double b) {
      return (a > 0.0 && b > 0.0) ? a / b : 0.0;
    };
    const double raster_fast_speedup =
        ratio(median_of("raster_reference"), median_of("raster_fast"));
    const double sort_parallel_speedup =
        ratio(median_of("sort_serial"), median_of("sort_parallel"));
    const double raster_mt_speedup =
        ratio(median_of("raster_fast"), median_of("raster_fast_mt"));

    print_banner(std::cout,
                 "bench_micro: " + std::to_string(params.gaussian_count) +
                     " Gaussians at " + std::to_string(camera.width()) + "x" +
                     std::to_string(camera.height()) + ", warmup " +
                     std::to_string(warmup) + ", repeat " +
                     std::to_string(repeat));
    TablePrinter table({"Benchmark", "Median", "Mean", "Min", "Stddev"});
    for (const BenchResult& r : results) {
      table.add_row({r.name, format_time_ms(r.median_ms),
                     format_time_ms(r.mean_ms), format_time_ms(r.min_ms),
                     format_time_ms(r.stddev_ms)});
    }
    table.print(std::cout);
    if (raster_fast_speedup > 0.0) {
      std::cout << "Raster fast-vs-reference speedup (single thread, median): "
                << format_ratio(raster_fast_speedup) << '\n';
    }

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      std::ostringstream json;
      json << "{\"schema\":\"gaurast-bench-micro/v1\",\"config\":{"
           << "\"synthetic\":" << params.gaussian_count
           << ",\"width\":" << camera.width()
           << ",\"height\":" << camera.height()
           << ",\"threads\":" << threads << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"seed\":" << params.seed
           << "},\"results\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult& r = results[i];
        json << (i ? "," : "") << "{\"name\":\"" << r.name
             << "\",\"repeats\":" << r.repeats
             << ",\"mean_ms\":" << json_number(r.mean_ms)
             << ",\"median_ms\":" << json_number(r.median_ms)
             << ",\"min_ms\":" << json_number(r.min_ms)
             << ",\"max_ms\":" << json_number(r.max_ms)
             << ",\"stddev_ms\":" << json_number(r.stddev_ms) << "}";
      }
      json << "],\"derived\":{\"raster_fast_speedup\":"
           << json_number(raster_fast_speedup)
           << ",\"sort_parallel_speedup\":"
           << json_number(sort_parallel_speedup)
           << ",\"raster_mt_speedup\":" << json_number(raster_mt_speedup)
           << "}}";
      if (json_path == "-") {
        std::cout << json.str() << '\n';
      } else {
        std::ofstream os(json_path, std::ios::trunc);
        if (!os.good()) {
          throw CliParseError("cannot write --json file '" + json_path + "'");
        }
        os << json.str() << '\n';
        std::cout << "Wrote " << json_path << '\n';
      }
    }
    return 0;
  } catch (const CliParseError& e) {
    std::cerr << "bench_micro: " << e.what() << '\n';
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
