// Render-service serving benchmark: the in-process worker sweep.
//
// One generated closed-loop request list is served by a RenderService at
// 1, 2, 4, ... workers up to the core count, each point driven by
// max(--clients, workers) client lanes that call RenderService::submit
// directly: how far inter-frame parallelism scales (the serving side of
// the paper's FPS). The headline, sweep_speedup (widest point's mean
// throughput over the 1-worker point's), is floored by
// tools/bench_compare.py: a service whose workers run one at a time reads
// about 1.0. The wire, router and scene-store layers are measured end to
// end by perfbench's fleet_small workload instead.
//
// A pass builds a fresh service, prewarms every scene class into it (so
// timing measures serving, not scene generation), and runs the lanes; each
// takes the next unclaimed request from the shared list. A frame that
// fails to render fails the run. Points run interleaved (w1, w2, w4, w1,
// ...) for --warmup unmeasured and --repeat measured rounds, so slow
// machine-state drift lands on every point of the ratio. Throughput is the
// mean over measured passes; latencies and the embedded stats come from the
// best-throughput pass.
//
// --json writes one report tagged gaurast-bench-service/v3:
//
//   {"schema":...,"backend":...,"kernel":...,"jobs":...,"width":...,
//    "height":...,"seed":...,"warmup":...,"repeat":...,"scene_classes":...,
//    "modes":[{"workers":...,"clients":...,"throughput_mean_fps":...,
//              "throughput_best_fps":...,"latency_p50_ms":...,
//              "latency_p95_ms":...,"latency_p99_ms":...,
//              "stats":<runtime::service_stats_json>}],
//    "derived":{"sweep_speedup":...}}
//
// --help lists the flags; --backend takes any name in the engine registry
// (`gaurast_cli backends`), and --kernel selects the Step-3 software kernel
// on backends whose capabilities support it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "engine/registry.hpp"
#include "pipeline/rasterize.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;
using Clock = std::chrono::steady_clock;

constexpr const char* kSchema = "gaurast-bench-service/v3";

struct Side {
  int workers = 1;
  int clients = 1;  ///< closed-loop lanes
};

/// One pass: client-side throughput and latency, plus the service's
/// post-drain stats.
struct Pass {
  double fps = 0.0;                  ///< answers per lane-wall second
  std::vector<double> latencies_ms;  ///< round trips, ascending
  runtime::ServiceStats stats;

  double latency_ms(double q) const {
    return percentile_sorted(latencies_ms, q);
  }
};

/// A side's measured passes: mean throughput, the best pass kept whole.
struct Point {
  double fps_mean = 0.0;
  double fps_best = -1.0;
  Pass best;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Harness {
  std::string backend;
  pipeline::RasterKernel kernel = pipeline::RasterKernel::kReference;
  int warmup = 0;
  int repeat = 1;
  /// Every scene class the request list touches, generated once; services
  /// resolve misses by copying from here, never by regenerating.
  std::map<std::string, scene::GaussianScene> scenes;
  std::vector<runtime::WorkloadRequest> requests;

  std::vector<Point> compare(const std::vector<Side>& sides) const {
    std::vector<Point> points(sides.size());
    for (int round = -warmup; round < repeat; ++round) {
      for (std::size_t s = 0; s < sides.size(); ++s) {
        Pass pass = run_pass(sides[s]);
        if (round < 0) continue;  // warmup: timing discarded
        Point& point = points[s];
        point.fps_mean += pass.fps / static_cast<double>(repeat);
        if (pass.fps >= point.fps_best) {
          point.fps_best = pass.fps;
          point.best = std::move(pass);
        }
      }
    }
    return points;
  }

  Pass run_pass(const Side& side) const {
    runtime::ServiceConfig config;
    config.workers = side.workers;
    config.backend = backend;
    config.renderer.kernel = kernel;
    config.scene_source = std::make_shared<const scene::FunctionSource>(
        [this](const std::string& key) { return scenes.at(key); });
    runtime::RenderService service(config);
    for (const auto& entry : scenes) service.scene(entry.first);

    const auto lanes = static_cast<std::size_t>(side.clients);
    std::vector<std::vector<double>> latencies(lanes);
    std::atomic<std::size_t> cursor{0};
    // One closed-loop client: the next unclaimed request, one at a time.
    // Lanes share the cursor, so unequal frame costs never leave one lane
    // with a long tail while the others idle.
    const auto run_lane = [&](std::size_t lane) {
      for (std::size_t i = cursor++; i < requests.size(); i = cursor++) {
        const runtime::WorkloadRequest& req = requests[i];
        const Clock::time_point start = Clock::now();
        service.submit({service.scene(req.scene_key), req.camera}).get();
        latencies[lane].push_back(ms_since(start));
      }
    };
    std::vector<std::exception_ptr> failures(lanes);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&, lane] {
        try {
          run_lane(lane);
        } catch (...) {
          failures[lane] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_ms = ms_since(t0);
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }

    service.drain();
    Pass pass;
    pass.stats = service.stats();
    pass.fps = static_cast<double>(requests.size()) * 1000.0 / wall_ms;
    for (const std::vector<double>& lane : latencies) {
      pass.latencies_ms.insert(pass.latencies_ms.end(), lane.begin(),
                               lane.end());
    }
    std::sort(pass.latencies_ms.begin(), pass.latencies_ms.end());
    return pass;
  }
};

std::vector<int> worker_sweep() {
  const int max_workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> sweep;
  for (int w = 1; w < max_workers; w *= 2) sweep.push_back(w);
  sweep.push_back(max_workers);
  return sweep;
}

std::string mode_json(const Side& side, const Point& point) {
  const Pass& best = point.best;
  std::ostringstream os;
  os << "{\"workers\":" << side.workers << ",\"clients\":" << side.clients
     << ",\"throughput_mean_fps\":" << format_fixed(point.fps_mean, 4)
     << ",\"throughput_best_fps\":" << format_fixed(point.fps_best, 4)
     << ",\"latency_p50_ms\":" << format_fixed(best.latency_ms(0.50), 4)
     << ",\"latency_p95_ms\":" << format_fixed(best.latency_ms(0.95), 4)
     << ",\"latency_p99_ms\":" << format_fixed(best.latency_ms(0.99), 4)
     << ",\"stats\":" << runtime::service_stats_json(best.stats) << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_service_throughput");
  cli.add_flag("jobs", "24", "frame requests per pass");
  cli.add_flag("backend", "sw",
               "Step-3 executor: " + engine::join_names(engine::names(), "|"));
  cli.add_flag("kernel", "reference",
               "Step-3 software kernel (reference|fast) on backends that "
               "support kernel selection");
  cli.add_flag("warmup", "1", "unmeasured rounds (one pass per point each)");
  cli.add_flag("repeat", "3", "measured rounds (one pass per point each)");
  cli.add_flag("width", "128", "render width");
  cli.add_flag("height", "96", "render height");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("clients", "4",
               "closed-loop client lanes per pass (at least the workers)");
  cli.add_flag("json", "", "write machine-readable results to this path");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Resolve --backend against the registry up front so a typo fails with
    // the enumerating diagnostic before any scene generation.
    Harness bench;
    bench.backend = cli.get_string("backend");
    const engine::BackendInfo backend_info =
        engine::registry().info(bench.backend);
    bench.kernel =
        pipeline::raster_kernel_from_string(cli.get_string("kernel"));
    if (bench.kernel != pipeline::RasterKernel::kReference &&
        !backend_info.capabilities.supports_kernel_select) {
      // Same shape as gaurast_cli's capability diagnostics: name the
      // offending backend and enumerate the backends that do accept it.
      const std::vector<std::string> accepting =
          engine::registry().names_where([](const engine::Capabilities& c) {
            return c.supports_kernel_select;
          });
      throw CliParseError("--kernel does not apply to --backend " +
                          bench.backend +
                          " (its Step 3 does not run the software raster "
                          "kernels); backends that accept it: " +
                          engine::join_names(accepting));
    }
    bench.warmup = cli.get_int("warmup");
    if (bench.warmup < 0) throw CliParseError("--warmup must be >= 0");
    bench.repeat = cli.get_positive_int("repeat");
    const int clients = cli.get_positive_int("clients");

    runtime::WorkloadConfig workload;
    workload.seed = cli.get_uint64("seed");
    workload.jobs = cli.get_positive_int("jobs");
    workload.width = cli.get_positive_int("width");
    workload.height = cli.get_positive_int("height");
    bench.requests = runtime::generate_workload(workload);
    for (const runtime::WorkloadRequest& req : bench.requests) {
      if (bench.scenes.count(req.scene_key)) continue;
      scene::GeneratorParams params;
      params.gaussian_count = req.gaussian_count;
      params.seed = req.scene_seed;
      bench.scenes.emplace(req.scene_key, scene::generate_scene(params));
    }

    std::vector<Side> sides;
    for (const int w : worker_sweep()) {
      sides.push_back({w, std::max(clients, w)});
    }

    print_banner(std::cout,
                 "Service worker sweep, backend " + bench.backend +
                     ", kernel " + pipeline::to_string(bench.kernel) + ", " +
                     std::to_string(workload.jobs) + " jobs x " +
                     std::to_string(bench.repeat) + " passes per point");
    const std::vector<Point> points = bench.compare(sides);
    const double sweep_speedup =
        points.back().fps_mean / points.front().fps_mean;

    TablePrinter table(
        {"Workers", "Clients", "Throughput", "p50", "p95", "p99"});
    for (std::size_t s = 0; s < sides.size(); ++s) {
      const Pass& best = points[s].best;
      table.add_row({std::to_string(sides[s].workers),
                     std::to_string(sides[s].clients),
                     format_fixed(points[s].fps_mean, 1) + " fps",
                     format_time_ms(best.latency_ms(0.50)),
                     format_time_ms(best.latency_ms(0.95)),
                     format_time_ms(best.latency_ms(0.99))});
    }
    table.print(std::cout);
    std::cout << "sweep_speedup: " << format_fixed(sweep_speedup, 4) << '\n';

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::trunc);
      if (!os.good()) {
        throw CliParseError("cannot write --json file '" + json_path + "'");
      }
      os << "{\"schema\":\"" << kSchema << "\",\"backend\":\""
         << bench.backend << "\",\"kernel\":\""
         << pipeline::to_string(bench.kernel) << "\",\"jobs\":"
         << workload.jobs << ",\"width\":" << workload.width
         << ",\"height\":" << workload.height << ",\"seed\":" << workload.seed
         << ",\"warmup\":" << bench.warmup << ",\"repeat\":" << bench.repeat
         << ",\"scene_classes\":" << bench.scenes.size() << ",\"modes\":[";
      for (std::size_t s = 0; s < sides.size(); ++s) {
        os << (s ? "," : "") << mode_json(sides[s], points[s]);
      }
      os << "],\"derived\":{\"sweep_speedup\":"
         << format_fixed(sweep_speedup, 4) << "}}\n";
      std::cout << "Wrote " << json_path << '\n';
    }
    return 0;
  } catch (const CliParseError& e) {
    std::cerr << "bench_service_throughput: " << e.what() << '\n';
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
