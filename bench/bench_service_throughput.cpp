// Render-service throughput scaling benchmark.
//
// Default mode drives the same closed-loop generated workload through
// RenderService at a sweep of worker counts and reports frames/sec, tail
// latency, and worker utilization per point, plus the speedup over the
// 1-worker baseline. This is the serving-side counterpart of the paper's
// per-frame FPS tables: it measures how far inter-frame parallelism takes
// the reference pipeline on a multi-core host.
//
// --scene-size pins every request to one scene class (e.g. the canonical
// 20000-Gaussian scene) instead of the default size mix.
//
// --listen-loopback measures what the wire costs: the same request list
// runs once in-process (client threads calling RenderService::submit
// directly) and once over a real loopback TCP socket through net::Server /
// net::Client (full frames, image payloads included), at equal worker and
// client counts. The report includes the wire/in-process throughput ratio,
// so protocol+socket overhead is a tracked number instead of folklore.
//
// --fleet N measures what the router costs: the same request list runs
// once direct (each client dials the scene's owner shard itself, using the
// same rendezvous hash the router uses) and once routed (every frame
// through the cluster::Router front-end), over an identical fleet of N
// loopback shards. The report includes the routed/direct throughput ratio
// and the router's own per-frame route-overhead numbers, so the price of
// the fleet front-end is a tracked number instead of folklore.
//
// --faults measures what failures cost: the same request list, every
// request carrying a --deadline-ms budget, runs once clean and once with
// --fault-plan armed at the router's forwarding seam (cluster.forward),
// over an identical routed fleet of 2 loopback shards. The report carries
// both passes' tail latency and outcome counts (ok / deadline-exceeded /
// unavailable) plus the faulted/clean throughput ratio and the faulted
// pass's deadline hit rate, so the price of retries, failovers, and
// deadline shedding under a known fault rate is a tracked number instead
// of folklore. The plan is seeded, so injections are reproducible.
//
// --scene-sweep measures what a scene-store byte budget costs: a widened
// mix of scene classes runs once against an unbounded store and once
// against a --scene-budget-mb budget small enough that the working set
// does not fit (default: half the unbounded pass's peak resident bytes),
// so the budgeted pass pays real LRU evictions and re-admissions. The
// report carries both passes' throughput and tails plus the budgeted
// pass's hit rate, eviction count, and resident/peak byte high-water
// marks, so the price of bounding scene memory is a tracked number
// instead of folklore.
//
// Each measured point runs `--warmup` unmeasured full workload passes
// followed by `--repeat` measured passes (every pass on a fresh,
// scene-prewarmed service, so pass timing measures serving, not scene
// generation or stale queue state); the reported throughput is the mean
// across measured passes and the latency columns come from the
// best-throughput pass. `--json` emits machine-readable reports consumed
// by tools/bench_pipeline.sh:
//
//   default:    {"schema":"gaurast-bench-service/v1","backend":...,
//                "kernel":...,"jobs":...,"width":...,"height":...,
//                "seed":...,"warmup":...,"repeat":...,
//                "points":[{"workers":N,"throughput_mean_fps":...,
//                           "throughput_best_fps":...,"speedup":...,
//                           "stats":{...}}]}
//   --listen-loopback:
//               {"schema":"gaurast-bench-service-wire/v1",
//                ...same config fields...,"workers":W,"clients":C,
//                "modes":[{"mode":"inproc",...},{"mode":"wire",...}],
//                "derived":{"wire_relative_throughput":...}}
//   --fleet N:  {"schema":"gaurast-bench-service-fleet/v1",
//                ...same config fields...,"shards":N,"workers":W,
//                "clients":C,
//                "modes":[{"mode":"direct",...},
//                         {"mode":"routed",...,
//                          "route_overhead_mean_ms":...,
//                          "route_overhead_p95_ms":...}],
//                "derived":{"routed_relative_throughput":...}}
//   --faults:   {"schema":"gaurast-bench-service-faults/v1",
//                ...same config fields...,"shards":2,"workers":W,
//                "clients":C,"deadline_ms":D,"fault_plan":"...",
//                "modes":[{"mode":"clean",...,"ok":...,
//                          "deadline_exceeded":...,"unavailable":...,
//                          "deadline_hit_rate":...,"retries":...,
//                          "failovers":...},
//                         {"mode":"faulted",...}],
//                "derived":{"faulted_relative_throughput":...,
//                           "faulted_deadline_hit_rate":...,
//                           "faulted_p99_ms":...}}
//   --scene-sweep:
//               {"schema":"gaurast-bench-service-scenes/v1",
//                ...same config fields...,"workers":W,
//                "scene_classes":N,"budget_bytes":B,
//                "modes":[{"mode":"unbounded",...},
//                         {"mode":"budgeted",...}],
//                "derived":{"budgeted_relative_throughput":...,
//                           "budgeted_hit_rate":...,
//                           "budgeted_evictions":...,
//                           "budgeted_peak_resident_bytes":...,
//                           "budgeted_resident_bytes":...,
//                           "budgeted_resident_under_budget":true|false}}
//
// Peak resident bytes may transiently exceed the budget: eviction never
// frees a scene that queued or in-flight renders still pin. The enforced
// number is the post-drain residency (budgeted_resident_under_budget).
//
//   bench_service_throughput [--jobs N] [--backend NAME]
//                            [--kernel reference|fast]
//                            [--warmup N] [--repeat N]
//                            [--width W] [--height H] [--seed S]
//                            [--scene-size G] [--queue Q]
//                            [--listen-loopback] [--clients C] [--workers W]
//                            [--fleet N]
//                            [--faults] [--deadline-ms D] [--fault-plan SPEC]
//                            [--scene-sweep] [--scene-budget-mb M]
//                            [--json out.json]
//
// --backend takes any name in the engine registry (`gaurast_cli backends`);
// --kernel selects the Step-3 software kernel on backends whose
// capabilities support kernel selection.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/table.hpp"
#include "engine/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "pipeline/rasterize.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;

std::vector<int> worker_sweep() {
  const int max_workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> sweep;
  for (int w = 1; w < max_workers; w *= 2) sweep.push_back(w);
  sweep.push_back(max_workers);
  return sweep;
}

/// Linearly interpolated percentile (p in [0, 1]); sorts in place.
double percentile_ms(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_service_throughput");
  cli.add_flag("jobs", "24", "frame requests per workload pass");
  cli.add_flag("backend", "sw",
               "Step-3 executor: " + engine::join_names(engine::names(), "|"));
  cli.add_flag("kernel", "reference",
               "Step-3 software kernel (reference|fast) on backends that "
               "support kernel selection");
  cli.add_flag("warmup", "1", "unmeasured workload passes per sweep point");
  cli.add_flag("repeat", "3", "measured workload passes per sweep point");
  cli.add_flag("width", "128", "render width");
  cli.add_flag("height", "96", "render height");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("scene-size", "0",
               "pin every request to one scene class of this many Gaussians "
               "(0 = default mixed sizes)");
  cli.add_flag("queue", "64", "service request-queue capacity");
  cli.add_flag("listen-loopback", "false",
               "compare in-process submission vs the same requests over a "
               "real loopback TCP socket (net::Server / net::Client)");
  cli.add_flag("clients", "4",
               "client threads driving each pass (with --listen-loopback)");
  cli.add_flag("workers", "2",
               "service worker count (with --listen-loopback; per shard "
               "with --fleet)");
  cli.add_flag("fleet", "0",
               "compare direct-to-shard vs routed-through-cluster::Router "
               "serving over this many loopback shards (0 = off)");
  cli.add_flag("faults", "false",
               "compare clean vs fault-injected routed serving over 2 "
               "loopback shards; every request carries --deadline-ms and "
               "the faulted pass arms --fault-plan");
  cli.add_flag("deadline-ms", "250",
               "per-request deadline budget (with --faults)");
  cli.add_flag("fault-plan",
               "seed=11;cluster.forward:error:p=0.01;"
               "cluster.forward:delay=10:p=0.05",
               "GAURAST_FAULT_PLAN spec armed during the faulted pass "
               "(with --faults); keep it to router-internal points like "
               "cluster.forward or the bench's own clients misbehave");
  cli.add_flag("scene-sweep", "false",
               "compare an unbounded scene store vs a --scene-budget-mb "
               "byte budget over a widened scene-class mix that does not "
               "fit under the budget");
  cli.add_flag("scene-budget-mb", "0",
               "scene-store byte budget in MiB for the budgeted "
               "--scene-sweep pass (0 = half the unbounded pass's peak "
               "resident bytes)");
  cli.add_flag("json", "", "write machine-readable results to this path");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Resolve --backend against the registry up front so a typo fails with
    // the enumerating diagnostic before any scene generation.
    const std::string backend = cli.get_string("backend");
    const engine::BackendInfo backend_info = engine::registry().info(backend);
    const pipeline::RasterKernel kernel =
        pipeline::raster_kernel_from_string(cli.get_string("kernel"));
    if (kernel != pipeline::RasterKernel::kReference &&
        !backend_info.capabilities.supports_kernel_select) {
      // Same shape as gaurast_cli's capability diagnostics: name the
      // offending backend and enumerate the backends that do accept it.
      const std::vector<std::string> accepting = engine::registry().names_where(
          [](const engine::Capabilities& c) { return c.supports_kernel_select; });
      throw CliParseError("--kernel does not apply to --backend " + backend +
                          " (its Step 3 does not run the software raster "
                          "kernels); backends that accept it: " +
                          engine::join_names(accepting));
    }
    const int warmup = cli.get_int("warmup");
    if (warmup < 0) throw CliParseError("--warmup must be >= 0");
    const int repeat = cli.get_positive_int("repeat");
    const bool listen_loopback = cli.get_bool("listen-loopback");
    const int fleet_shards = cli.get_int("fleet");
    if (fleet_shards < 0) throw CliParseError("--fleet must be >= 0");
    const bool run_faults = cli.get_bool("faults");
    const bool scene_sweep = cli.get_bool("scene-sweep");
    if ((listen_loopback ? 1 : 0) + (fleet_shards > 0 ? 1 : 0) +
            (run_faults ? 1 : 0) + (scene_sweep ? 1 : 0) >
        1) {
      throw CliParseError(
          "--listen-loopback, --fleet, --faults, and --scene-sweep are "
          "separate comparisons; run them as separate invocations");
    }
    const int scene_size = cli.get_int("scene-size");
    if (scene_size < 0) throw CliParseError("--scene-size must be >= 0");

    runtime::WorkloadConfig workload;
    workload.seed = cli.get_uint64("seed");
    workload.jobs = cli.get_positive_int("jobs");
    workload.width = cli.get_positive_int("width");
    workload.height = cli.get_positive_int("height");
    workload.arrival = runtime::ArrivalModel::kClosedLoop;
    if (scene_size > 0) {
      workload.scene_sizes = {static_cast<std::uint64_t>(scene_size)};
    } else if (scene_sweep) {
      // Widen the class mix so the budgeted pass genuinely cannot hold
      // every scene at once and must evict.
      workload.scene_sizes = {2000, 4000, 8000, 12000, 16000, 20000};
    }

    // Generate each scene class once up front; per-pass services get their
    // caches pre-warmed with copies so pass timing measures serving, not
    // repeated scene generation.
    std::map<std::string, gaurast::scene::GaussianScene> master_scenes;
    for (const runtime::WorkloadRequest& req :
         runtime::generate_workload(workload)) {
      if (master_scenes.count(req.scene_key)) continue;
      gaurast::scene::GeneratorParams params;
      params.gaussian_count = req.gaussian_count;
      params.seed = req.scene_seed;
      master_scenes.emplace(req.scene_key,
                            gaurast::scene::generate_scene(params));
    }
    // Every service in this bench resolves scenes through the shared
    // master map: a cache miss copies the pregenerated scene instead of
    // regenerating it, so pass timing measures serving (and, under a
    // store budget, re-admission), never scene synthesis.
    const auto master_source = std::make_shared<const scene::FunctionSource>(
        [&master_scenes](const std::string& key) {
          return master_scenes.at(key);
        });

    // One full workload pass over a fresh, scene-prewarmed service.
    const auto run_pass = [&](const runtime::ServiceConfig& base_config) {
      runtime::ServiceConfig pass_config = base_config;
      pass_config.scene_source = master_source;
      runtime::RenderService service(pass_config);
      for (const auto& [key, master] : master_scenes) {
        (void)master;
        service.scene(key);
      }
      return run_workload(service, workload).stats;
    };

    // One measured point: warmup + repeat passes accumulated into
    // mean/best throughput, latency columns from the best pass.
    struct MeasuredPoint {
      double fps_sum = 0.0;
      double fps_mean = 0.0;
      double fps_best = 0.0;
      runtime::ServiceStats best_stats;

      void add_pass(const runtime::ServiceStats& stats) {
        fps_sum += stats.throughput_fps;
        if (stats.throughput_fps >= fps_best) {
          fps_best = stats.throughput_fps;
          best_stats = stats;
        }
      }
      void finalize(int passes) {
        fps_mean = fps_sum / static_cast<double>(passes);
      }
    };
    const auto measure = [&](const runtime::ServiceConfig& base_config) {
      MeasuredPoint point;
      for (int pass = -warmup; pass < repeat; ++pass) {
        const runtime::ServiceStats stats = run_pass(base_config);
        if (pass < 0) continue;  // warmup pass: timing discarded
        point.add_pass(stats);
      }
      point.finalize(repeat);
      return point;
    };

    const std::string json_path = cli.get_string("json");
    std::ostringstream json;

    if (listen_loopback) {
      const int clients = cli.get_positive_int("clients");
      const int workers = cli.get_positive_int("workers");
      runtime::ServiceConfig config;
      config.workers = workers;
      config.backend = backend;
      config.renderer.kernel = kernel;
      config.queue_capacity =
          static_cast<std::size_t>(cli.get_positive_int("queue"));
      config.scene_source = master_source;

      // One request list shared by both sides: the wire pass sends these
      // frames verbatim; the in-process pass submits their exact
      // (scene, camera) equivalents. Image payloads are requested so the
      // wire pass pays the full serving cost, response serialization and
      // socket bandwidth included.
      std::vector<net::RenderRequest> requests;
      for (const runtime::WorkloadRequest& req :
           runtime::generate_workload(workload)) {
        net::RenderRequest wire = net::default_render_request(
            req.gaussian_count, req.scene_seed, workload.width,
            workload.height);
        wire.request_id = static_cast<std::uint64_t>(requests.size()) + 1;
        wire.flags = net::kWantImage;
        requests.push_back(std::move(wire));
      }

      const auto prewarm = [&](runtime::RenderService& service) {
        for (const auto& [key, master] : master_scenes) {
          (void)master;
          service.scene(key);
        }
      };

      // In-process side: C closed-loop client threads calling submit()
      // directly; throughput/latency come from the service stats.
      const auto run_inproc_pass = [&]() {
        runtime::RenderService service(config);
        prewarm(service);
        std::vector<std::thread> threads;
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < requests.size(); i += static_cast<std::size_t>(clients)) {
              const net::RenderRequest& wire = requests[i];
              runtime::ScenePtr scene = service.scene(wire.scene_key());
              service.submit({std::move(scene), wire.camera()}).get();
            }
          });
        }
        for (std::thread& t : threads) t.join();
        return service.stats();
      };

      struct WirePass {
        double fps = 0.0;
        std::vector<double> latencies_ms;  ///< client-observed round trips
      };

      // Wire side: the same service behind a real loopback net::Server, C
      // client threads each owning a blocking net::Client. kOverloaded is
      // the documented shed signal, so clients back off and retry rather
      // than counting a rejection as a served frame.
      const auto run_wire_pass = [&]() {
        runtime::RenderService service(config);
        prewarm(service);
        net::Server server(service, {});
        server.start();
        std::vector<std::vector<double>> latencies(
            static_cast<std::size_t>(clients));
        std::atomic<int> failed{0};
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            net::Client client("127.0.0.1", server.port());
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < requests.size(); i += static_cast<std::size_t>(clients)) {
              for (;;) {
                const auto start = std::chrono::steady_clock::now();
                const net::RenderResponse resp = client.render(requests[i]);
                if (resp.status == net::RenderStatus::kOverloaded) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  continue;
                }
                if (resp.status != net::RenderStatus::kOk) {
                  failed.fetch_add(1);
                  break;
                }
                latencies[static_cast<std::size_t>(t)].push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                break;
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        server.stop();
        if (failed.load() > 0) {
          throw Error("wire pass: " + std::to_string(failed.load()) +
                      " request(s) refused by the server");
        }
        WirePass pass;
        pass.fps = wall_s > 0.0
                       ? static_cast<double>(requests.size()) / wall_s
                       : 0.0;
        for (std::vector<double>& per_client : latencies) {
          pass.latencies_ms.insert(pass.latencies_ms.end(),
                                   per_client.begin(), per_client.end());
        }
        return pass;
      };

      print_banner(std::cout,
                   "Wire vs in-process serving, backend " + backend +
                       ", kernel " + pipeline::to_string(kernel) + ", " +
                       std::to_string(workload.jobs) + " jobs x " +
                       std::to_string(repeat) + " passes, " +
                       std::to_string(workers) + " workers, " +
                       std::to_string(clients) + " clients");

      // The two sides run in interleaved pairs (inproc, wire, inproc, wire,
      // …) rather than as two grouped blocks, so slow machine-state drift
      // (frequency scaling, page cache) lands on both sides of the ratio
      // instead of biasing whichever side ran last.
      MeasuredPoint inproc_point;
      double wire_fps_sum = 0.0;
      double wire_fps_best = 0.0;
      std::vector<double> wire_best_latencies;
      for (int pass = -warmup; pass < repeat; ++pass) {
        const runtime::ServiceStats inproc_stats = run_inproc_pass();
        WirePass wire_pass = run_wire_pass();
        if (pass < 0) continue;
        inproc_point.add_pass(inproc_stats);
        wire_fps_sum += wire_pass.fps;
        if (wire_pass.fps >= wire_fps_best) {
          wire_fps_best = wire_pass.fps;
          wire_best_latencies = std::move(wire_pass.latencies_ms);
        }
      }
      inproc_point.finalize(repeat);
      const double wire_fps_mean =
          wire_fps_sum / static_cast<double>(repeat);
      const double wire_p50 = percentile_ms(wire_best_latencies, 0.50);
      const double wire_p95 = percentile_ms(wire_best_latencies, 0.95);
      const double wire_p99 = percentile_ms(wire_best_latencies, 0.99);
      const double wire_relative = inproc_point.fps_mean > 0.0
                                       ? wire_fps_mean / inproc_point.fps_mean
                                       : 0.0;

      TablePrinter table(
          {"Mode", "Clients", "Throughput", "p50", "p95", "p99"});
      table.add_row(
          {"inproc", std::to_string(clients),
           format_fixed(inproc_point.fps_mean, 1) + " fps",
           format_time_ms(inproc_point.best_stats.latency_p50_ms),
           format_time_ms(inproc_point.best_stats.latency_p95_ms),
           format_time_ms(inproc_point.best_stats.latency_p99_ms)});
      table.add_row({"wire", std::to_string(clients),
                     format_fixed(wire_fps_mean, 1) + " fps",
                     format_time_ms(wire_p50), format_time_ms(wire_p95),
                     format_time_ms(wire_p99)});
      table.print(std::cout);
      std::cout << "Wire/in-process throughput: "
                << format_ratio(wire_relative, 3) << '\n';

      json << "{\"schema\":\"gaurast-bench-service-wire/v1\","
           << "\"backend\":\"" << backend << "\",\"kernel\":\""
           << pipeline::to_string(kernel) << "\",\"jobs\":" << workload.jobs
           << ",\"width\":" << workload.width
           << ",\"height\":" << workload.height
           << ",\"seed\":" << workload.seed << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"workers\":" << workers
           << ",\"clients\":" << clients << ",\"modes\":["
           << "{\"mode\":\"inproc\",\"throughput_mean_fps\":"
           << format_fixed(inproc_point.fps_mean, 4)
           << ",\"throughput_best_fps\":"
           << format_fixed(inproc_point.fps_best, 4) << ",\"stats\":"
           << runtime::service_stats_json(inproc_point.best_stats) << "},"
           << "{\"mode\":\"wire\",\"throughput_mean_fps\":"
           << format_fixed(wire_fps_mean, 4) << ",\"throughput_best_fps\":"
           << format_fixed(wire_fps_best, 4) << ",\"latency_p50_ms\":"
           << format_fixed(wire_p50, 4) << ",\"latency_p95_ms\":"
           << format_fixed(wire_p95, 4) << ",\"latency_p99_ms\":"
           << format_fixed(wire_p99, 4) << "}]"
           << ",\"derived\":{\"wire_relative_throughput\":"
           << format_fixed(wire_relative, 4) << "}}";
    } else if (fleet_shards > 0) {
      const int clients = cli.get_positive_int("clients");
      const int workers = cli.get_positive_int("workers");
      runtime::ServiceConfig config;
      config.workers = workers;
      config.backend = backend;
      config.renderer.kernel = kernel;
      config.queue_capacity =
          static_cast<std::size_t>(cli.get_positive_int("queue"));
      config.scene_source = master_source;

      // One request list shared by both sides, full image payloads: the
      // routed pass pays the real forwarding cost, pixels included.
      std::vector<net::RenderRequest> requests;
      for (const runtime::WorkloadRequest& req :
           runtime::generate_workload(workload)) {
        net::RenderRequest wire = net::default_render_request(
            req.gaussian_count, req.scene_seed, workload.width,
            workload.height);
        wire.request_id = static_cast<std::uint64_t>(requests.size()) + 1;
        wire.flags = net::kWantImage;
        requests.push_back(std::move(wire));
      }

      struct FleetPass {
        double fps = 0.0;
        std::vector<double> latencies_ms;  ///< client-observed round trips
        cluster::RouterStatsSnapshot router_stats;
      };

      // One pass over a fresh fleet of `fleet_shards` loopback shards.
      // Direct mode: every client resolves the scene's owner itself via the
      // same rendezvous hash and dials that shard. Routed mode: every frame
      // goes through one cluster::Router front-end. Identical shards,
      // identical requests — the delta is the router.
      const auto run_fleet_pass = [&](bool routed) {
        std::vector<std::unique_ptr<runtime::RenderService>> services;
        std::vector<std::unique_ptr<net::Server>> servers;
        std::vector<cluster::ShardId> ids;
        for (int s = 0; s < fleet_shards; ++s) {
          services.push_back(std::make_unique<runtime::RenderService>(config));
          for (const auto& [key, master] : master_scenes) {
            (void)master;
            services.back()->scene(key);
          }
          servers.push_back(std::make_unique<net::Server>(
              *services.back(), net::ServerConfig{}));
          servers.back()->start();
          ids.push_back(cluster::ShardId{"127.0.0.1", servers.back()->port()});
        }
        cluster::HostDb db(ids);
        std::unique_ptr<cluster::Router> router;
        if (routed) {
          cluster::RouterConfig router_config;
          // Capacity sized so the router never sheds: this pass measures
          // forwarding overhead, not admission control.
          router_config.inflight_per_shard = clients;
          router_config.queue_per_shard = static_cast<int>(requests.size());
          router = std::make_unique<cluster::Router>(db, router_config);
          router->start();
        }

        std::vector<std::vector<double>> latencies(
            static_cast<std::size_t>(clients));
        std::atomic<int> failed{0};
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            // Direct mode keeps one lazily-dialed connection per shard;
            // routed mode one connection to the front-end — both sides
            // reuse connections across the pass.
            std::vector<std::unique_ptr<net::Client>> conns(
                routed ? 1 : static_cast<std::size_t>(fleet_shards));
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < requests.size(); i += static_cast<std::size_t>(clients)) {
              const net::RenderRequest& wire = requests[i];
              std::size_t slot = 0;
              int port = router ? router->port() : 0;
              if (!routed) {
                slot = *db.route(wire.scene_key());
                port = ids[slot].port;
              }
              if (!conns[slot]) {
                conns[slot] =
                    std::make_unique<net::Client>("127.0.0.1", port);
              }
              const auto start = std::chrono::steady_clock::now();
              const net::RenderResponse resp = conns[slot]->render(wire);
              if (resp.status != net::RenderStatus::kOk) {
                failed.fetch_add(1);
                continue;
              }
              latencies[static_cast<std::size_t>(t)].push_back(
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
            }
          });
        }
        for (std::thread& t : threads) t.join();
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        FleetPass pass;
        if (router) {
          pass.router_stats = router->stats_snapshot();
          router->stop();
        }
        for (auto& server : servers) server->stop();
        if (failed.load() > 0) {
          throw Error("fleet pass: " + std::to_string(failed.load()) +
                      " request(s) not served kOk");
        }
        pass.fps = wall_s > 0.0
                       ? static_cast<double>(requests.size()) / wall_s
                       : 0.0;
        for (std::vector<double>& per_client : latencies) {
          pass.latencies_ms.insert(pass.latencies_ms.end(),
                                   per_client.begin(), per_client.end());
        }
        return pass;
      };

      print_banner(std::cout,
                   "Direct vs routed fleet serving, backend " + backend +
                       ", kernel " + pipeline::to_string(kernel) + ", " +
                       std::to_string(workload.jobs) + " jobs x " +
                       std::to_string(repeat) + " passes, " +
                       std::to_string(fleet_shards) + " shards x " +
                       std::to_string(workers) + " workers, " +
                       std::to_string(clients) + " clients");

      // Interleaved passes, same rationale as the other comparisons.
      struct FleetPoint {
        double fps_sum = 0.0;
        double fps_mean = 0.0;
        double fps_best = 0.0;
        FleetPass best;

        void add_pass(FleetPass pass) {
          fps_sum += pass.fps;
          if (pass.fps >= fps_best) {
            fps_best = pass.fps;
            best = std::move(pass);
          }
        }
        void finalize(int passes) {
          fps_mean = fps_sum / static_cast<double>(passes);
        }
      };
      FleetPoint direct_point;
      FleetPoint routed_point;
      for (int pass = -warmup; pass < repeat; ++pass) {
        FleetPass direct_pass = run_fleet_pass(/*routed=*/false);
        FleetPass routed_pass = run_fleet_pass(/*routed=*/true);
        if (pass < 0) continue;
        direct_point.add_pass(std::move(direct_pass));
        routed_point.add_pass(std::move(routed_pass));
      }
      direct_point.finalize(repeat);
      routed_point.finalize(repeat);
      const double routed_relative =
          direct_point.fps_mean > 0.0
              ? routed_point.fps_mean / direct_point.fps_mean
              : 0.0;
      std::vector<double> overhead =
          routed_point.best.router_stats.route_overhead_ms;
      const double overhead_mean =
          overhead.empty()
              ? 0.0
              : std::accumulate(overhead.begin(), overhead.end(), 0.0) /
                    static_cast<double>(overhead.size());
      const double overhead_p95 = percentile_ms(overhead, 0.95);

      TablePrinter table(
          {"Mode", "Clients", "Throughput", "p50", "p95", "p99"});
      const auto fleet_row = [&](const std::string& name,
                                 FleetPoint& point) {
        table.add_row(
            {name, std::to_string(clients),
             format_fixed(point.fps_mean, 1) + " fps",
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.50)),
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.95)),
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.99))});
      };
      fleet_row("direct", direct_point);
      fleet_row("routed", routed_point);
      table.print(std::cout);
      std::cout << "Routed/direct throughput: "
                << format_ratio(routed_relative, 3) << '\n'
                << "Route overhead: " << format_time_ms(overhead_mean)
                << " mean, " << format_time_ms(overhead_p95) << " p95\n";

      const auto fleet_mode_json = [&](const std::string& name,
                                       FleetPoint& point) {
        std::vector<double>& lat = point.best.latencies_ms;
        return "{\"mode\":\"" + name + "\",\"throughput_mean_fps\":" +
               format_fixed(point.fps_mean, 4) + ",\"throughput_best_fps\":" +
               format_fixed(point.fps_best, 4) + ",\"latency_p50_ms\":" +
               format_fixed(percentile_ms(lat, 0.50), 4) +
               ",\"latency_p95_ms\":" +
               format_fixed(percentile_ms(lat, 0.95), 4) +
               ",\"latency_p99_ms\":" +
               format_fixed(percentile_ms(lat, 0.99), 4);
      };
      json << "{\"schema\":\"gaurast-bench-service-fleet/v1\","
           << "\"backend\":\"" << backend << "\",\"kernel\":\""
           << pipeline::to_string(kernel) << "\",\"jobs\":" << workload.jobs
           << ",\"width\":" << workload.width
           << ",\"height\":" << workload.height
           << ",\"seed\":" << workload.seed << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"shards\":" << fleet_shards
           << ",\"workers\":" << workers << ",\"clients\":" << clients
           << ",\"modes\":[" << fleet_mode_json("direct", direct_point)
           << "}," << fleet_mode_json("routed", routed_point)
           << ",\"route_overhead_mean_ms\":" << format_fixed(overhead_mean, 4)
           << ",\"route_overhead_p95_ms\":" << format_fixed(overhead_p95, 4)
           << "}],\"derived\":{\"routed_relative_throughput\":"
           << format_fixed(routed_relative, 4) << "}}";
    } else if (run_faults) {
      const int clients = cli.get_positive_int("clients");
      const int workers = cli.get_positive_int("workers");
      const int deadline_ms = cli.get_positive_int("deadline-ms");
      const std::string fault_plan = cli.get_string("fault-plan");
      fault::parse_plan(fault_plan);  // reject a typo'd plan before any pass
      constexpr int kShards = 2;
      runtime::ServiceConfig config;
      config.workers = workers;
      config.backend = backend;
      config.renderer.kernel = kernel;
      config.queue_capacity =
          static_cast<std::size_t>(cli.get_positive_int("queue"));
      config.scene_source = master_source;

      // One request list shared by both passes, every request carrying the
      // same deadline budget, full image payloads: the faulted pass pays
      // the real retry/failover cost, pixels included.
      std::vector<net::RenderRequest> requests;
      for (const runtime::WorkloadRequest& req :
           runtime::generate_workload(workload)) {
        net::RenderRequest wire = net::default_render_request(
            req.gaussian_count, req.scene_seed, workload.width,
            workload.height);
        wire.request_id = static_cast<std::uint64_t>(requests.size()) + 1;
        wire.flags = net::kWantImage;
        wire.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
        requests.push_back(std::move(wire));
      }

      struct FaultsPass {
        double fps = 0.0;                  ///< kOk frames per wall second
        std::vector<double> latencies_ms;  ///< kOk round trips only
        std::uint64_t ok = 0;
        std::uint64_t deadline_exceeded = 0;
        std::uint64_t unavailable = 0;  ///< kFleetUnavailable and friends
        cluster::RouterStatsSnapshot router_stats;
      };

      // One pass over a fresh routed fleet of kShards loopback shards. The
      // faulted variant arms --fault-plan for the duration of the client
      // run; the seeded plan makes the injection sequence reproducible
      // pass to pass. The clean variant runs the identical fleet disarmed.
      const auto run_faults_pass = [&](bool faulted) {
        std::vector<std::unique_ptr<runtime::RenderService>> services;
        std::vector<std::unique_ptr<net::Server>> servers;
        std::vector<cluster::ShardId> ids;
        for (int s = 0; s < kShards; ++s) {
          services.push_back(std::make_unique<runtime::RenderService>(config));
          for (const auto& [key, master] : master_scenes) {
            (void)master;
            services.back()->scene(key);
          }
          servers.push_back(std::make_unique<net::Server>(
              *services.back(), net::ServerConfig{}));
          servers.back()->start();
          ids.push_back(cluster::ShardId{"127.0.0.1", servers.back()->port()});
        }
        cluster::HostDb db(ids);
        cluster::RouterConfig router_config;
        // Capacity sized so the router never sheds for queue reasons: the
        // outcome mix should reflect faults and deadlines, not admission.
        router_config.inflight_per_shard = clients;
        router_config.queue_per_shard = static_cast<int>(requests.size());
        cluster::Router router(db, router_config);
        router.start();

        std::vector<std::vector<double>> latencies(
            static_cast<std::size_t>(clients));
        std::atomic<std::uint64_t> ok{0};
        std::atomic<std::uint64_t> deadline_hit{0};
        std::atomic<std::uint64_t> unavailable{0};
        if (faulted) fault::arm(fault_plan);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            net::Client conn("127.0.0.1", router.port());
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < requests.size(); i += static_cast<std::size_t>(clients)) {
              const auto start = std::chrono::steady_clock::now();
              const net::RenderResponse resp = conn.render(requests[i]);
              switch (resp.status) {
                case net::RenderStatus::kOk:
                  ok.fetch_add(1);
                  latencies[static_cast<std::size_t>(t)].push_back(
                      std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
                  break;
                case net::RenderStatus::kDeadlineExceeded:
                  deadline_hit.fetch_add(1);
                  break;
                default:
                  unavailable.fetch_add(1);
                  break;
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        fault::disarm();
        FaultsPass pass;
        pass.router_stats = router.stats_snapshot();
        router.stop();
        for (auto& server : servers) server->stop();
        pass.ok = ok.load();
        pass.deadline_exceeded = deadline_hit.load();
        pass.unavailable = unavailable.load();
        pass.fps =
            wall_s > 0.0 ? static_cast<double>(pass.ok) / wall_s : 0.0;
        for (std::vector<double>& per_client : latencies) {
          pass.latencies_ms.insert(pass.latencies_ms.end(),
                                   per_client.begin(), per_client.end());
        }
        return pass;
      };

      print_banner(std::cout,
                   "Clean vs fault-injected routed serving, backend " +
                       backend + ", kernel " + pipeline::to_string(kernel) +
                       ", " + std::to_string(workload.jobs) + " jobs x " +
                       std::to_string(repeat) + " passes, " +
                       std::to_string(kShards) + " shards x " +
                       std::to_string(workers) + " workers, " +
                       std::to_string(clients) + " clients, deadline " +
                       std::to_string(deadline_ms) + " ms");

      // Interleaved passes, same rationale as the other comparisons.
      struct FaultsPoint {
        double fps_sum = 0.0;
        double fps_mean = 0.0;
        double fps_best = 0.0;
        FaultsPass best;

        void add_pass(FaultsPass pass) {
          fps_sum += pass.fps;
          if (pass.fps >= fps_best) {
            fps_best = pass.fps;
            best = std::move(pass);
          }
        }
        void finalize(int passes) {
          fps_mean = fps_sum / static_cast<double>(passes);
        }
      };
      FaultsPoint clean_point;
      FaultsPoint faulted_point;
      for (int pass = -warmup; pass < repeat; ++pass) {
        FaultsPass clean_pass = run_faults_pass(/*faulted=*/false);
        FaultsPass faulted_pass = run_faults_pass(/*faulted=*/true);
        if (pass < 0) continue;
        clean_point.add_pass(std::move(clean_pass));
        faulted_point.add_pass(std::move(faulted_pass));
      }
      clean_point.finalize(repeat);
      faulted_point.finalize(repeat);
      const double faulted_relative =
          clean_point.fps_mean > 0.0
              ? faulted_point.fps_mean / clean_point.fps_mean
              : 0.0;
      const auto hit_rate = [](const FaultsPass& pass) {
        const std::uint64_t total =
            pass.ok + pass.deadline_exceeded + pass.unavailable;
        return total > 0
                   ? static_cast<double>(pass.deadline_exceeded) /
                         static_cast<double>(total)
                   : 0.0;
      };

      TablePrinter table({"Mode", "Clients", "Throughput", "p50", "p95",
                          "p99", "Deadline", "Retries"});
      const auto faults_row = [&](const std::string& name,
                                  FaultsPoint& point) {
        table.add_row(
            {name, std::to_string(clients),
             format_fixed(point.fps_mean, 1) + " fps",
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.50)),
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.95)),
             format_time_ms(percentile_ms(point.best.latencies_ms, 0.99)),
             format_percent(hit_rate(point.best)),
             std::to_string(point.best.router_stats.retries)});
      };
      faults_row("clean", clean_point);
      faults_row("faulted", faulted_point);
      table.print(std::cout);
      std::cout << "Faulted/clean throughput: "
                << format_ratio(faulted_relative, 3) << '\n'
                << "Faulted pass outcomes: " << faulted_point.best.ok
                << " ok, " << faulted_point.best.deadline_exceeded
                << " deadline-exceeded, " << faulted_point.best.unavailable
                << " unavailable ("
                << faulted_point.best.router_stats.retries << " retries, "
                << faulted_point.best.router_stats.failovers
                << " failovers)\n";

      const auto faults_mode_json = [&](const std::string& name,
                                        FaultsPoint& point) {
        std::vector<double>& lat = point.best.latencies_ms;
        return "{\"mode\":\"" + name + "\",\"throughput_mean_fps\":" +
               format_fixed(point.fps_mean, 4) + ",\"throughput_best_fps\":" +
               format_fixed(point.fps_best, 4) + ",\"latency_p50_ms\":" +
               format_fixed(percentile_ms(lat, 0.50), 4) +
               ",\"latency_p95_ms\":" +
               format_fixed(percentile_ms(lat, 0.95), 4) +
               ",\"latency_p99_ms\":" +
               format_fixed(percentile_ms(lat, 0.99), 4) +
               ",\"ok\":" + std::to_string(point.best.ok) +
               ",\"deadline_exceeded\":" +
               std::to_string(point.best.deadline_exceeded) +
               ",\"unavailable\":" + std::to_string(point.best.unavailable) +
               ",\"deadline_hit_rate\":" +
               format_fixed(hit_rate(point.best), 6) + ",\"retries\":" +
               std::to_string(point.best.router_stats.retries) +
               ",\"failovers\":" +
               std::to_string(point.best.router_stats.failovers) + "}";
      };
      json << "{\"schema\":\"gaurast-bench-service-faults/v1\","
           << "\"backend\":\"" << backend << "\",\"kernel\":\""
           << pipeline::to_string(kernel) << "\",\"jobs\":" << workload.jobs
           << ",\"width\":" << workload.width
           << ",\"height\":" << workload.height
           << ",\"seed\":" << workload.seed << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"shards\":" << kShards
           << ",\"workers\":" << workers << ",\"clients\":" << clients
           << ",\"deadline_ms\":" << deadline_ms << ",\"fault_plan\":\""
           << fault_plan << "\",\"modes\":["
           << faults_mode_json("clean", clean_point) << ","
           << faults_mode_json("faulted", faulted_point)
           << "],\"derived\":{\"faulted_relative_throughput\":"
           << format_fixed(faulted_relative, 4)
           << ",\"faulted_deadline_hit_rate\":"
           << format_fixed(hit_rate(faulted_point.best), 6)
           << ",\"faulted_p99_ms\":"
           << format_fixed(
                  percentile_ms(faulted_point.best.latencies_ms, 0.99), 4)
           << "}}";
    } else if (scene_sweep) {
      const int workers = cli.get_positive_int("workers");
      const std::int64_t budget_flag_mb =
          static_cast<std::int64_t>(cli.get_int("scene-budget-mb"));
      if (budget_flag_mb < 0) {
        throw CliParseError("--scene-budget-mb must be >= 0");
      }
      runtime::ServiceConfig config;
      config.workers = workers;
      config.backend = backend;
      config.renderer.kernel = kernel;
      config.queue_capacity =
          static_cast<std::size_t>(cli.get_positive_int("queue"));

      print_banner(std::cout,
                   "Scene-store budget, backend " + backend + ", kernel " +
                       pipeline::to_string(kernel) + ", " +
                       std::to_string(workload.scene_sizes.size()) +
                       " scene classes, " + std::to_string(workload.jobs) +
                       " jobs x " + std::to_string(repeat) + " passes");

      // Unbounded baseline first: its peak resident bytes is both a
      // reported number and, when --scene-budget-mb is 0, the yardstick
      // the budgeted pass is squeezed against (half of it, so roughly
      // half the working set must be evicted at any moment).
      const MeasuredPoint unbounded_point = measure(config);
      const std::uint64_t budget_bytes =
          budget_flag_mb > 0
              ? static_cast<std::uint64_t>(budget_flag_mb) * 1024u * 1024u
              : unbounded_point.best_stats.scene_peak_resident_bytes / 2;
      runtime::ServiceConfig budgeted_config = config;
      budgeted_config.scene_budget_bytes = budget_bytes;
      const MeasuredPoint budgeted_point = measure(budgeted_config);

      const auto hit_rate = [](const runtime::ServiceStats& stats) {
        const double total = static_cast<double>(stats.scene_cache_hits +
                                                 stats.scene_cache_misses);
        return total > 0.0
                   ? static_cast<double>(stats.scene_cache_hits) / total
                   : 0.0;
      };
      const double budgeted_relative =
          unbounded_point.fps_mean > 0.0
              ? budgeted_point.fps_mean / unbounded_point.fps_mean
              : 0.0;
      // Peak residency may legitimately overshoot the budget while every
      // scene is pinned by queued renders; the enforced number is the
      // post-drain residency, which the store trims once pins release.
      const bool resident_under_budget =
          budgeted_point.best_stats.scene_resident_bytes <= budget_bytes;

      TablePrinter table({"Store", "Throughput", "Hit rate", "Evictions",
                          "Peak resident", "End resident", "p99"});
      const auto sweep_row = [&](const std::string& name,
                                 const MeasuredPoint& point) {
        table.add_row({name, format_fixed(point.fps_mean, 1) + " fps",
                       format_percent(hit_rate(point.best_stats)),
                       std::to_string(point.best_stats.scene_evictions),
                       std::to_string(
                           point.best_stats.scene_peak_resident_bytes) +
                           " B",
                       std::to_string(point.best_stats.scene_resident_bytes) +
                           " B",
                       format_time_ms(point.best_stats.latency_p99_ms)});
      };
      sweep_row("unbounded", unbounded_point);
      sweep_row("budgeted", budgeted_point);
      table.print(std::cout);
      std::cout << "Budget: " << budget_bytes << " B ("
                << (budget_flag_mb > 0 ? "--scene-budget-mb"
                                       : "half of unbounded peak")
                << "); budgeted/unbounded throughput: "
                << format_ratio(budgeted_relative, 3)
                << "; post-drain residency "
                << (resident_under_budget ? "held under" : "EXCEEDED")
                << " the budget\n";

      const auto sweep_json = [](const std::string& name,
                                 const MeasuredPoint& point) {
        return "{\"mode\":\"" + name + "\",\"throughput_mean_fps\":" +
               format_fixed(point.fps_mean, 4) + ",\"throughput_best_fps\":" +
               format_fixed(point.fps_best, 4) + ",\"stats\":" +
               runtime::service_stats_json(point.best_stats) + "}";
      };
      json << "{\"schema\":\"gaurast-bench-service-scenes/v1\","
           << "\"backend\":\"" << backend << "\",\"kernel\":\""
           << pipeline::to_string(kernel) << "\",\"jobs\":" << workload.jobs
           << ",\"width\":" << workload.width
           << ",\"height\":" << workload.height
           << ",\"seed\":" << workload.seed << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"workers\":" << workers
           << ",\"scene_classes\":" << workload.scene_sizes.size()
           << ",\"budget_bytes\":" << budget_bytes
           << ",\"modes\":[" << sweep_json("unbounded", unbounded_point)
           << "," << sweep_json("budgeted", budgeted_point) << "]"
           << ",\"derived\":{\"budgeted_relative_throughput\":"
           << format_fixed(budgeted_relative, 4)
           << ",\"budgeted_hit_rate\":"
           << format_fixed(hit_rate(budgeted_point.best_stats), 6)
           << ",\"budgeted_evictions\":"
           << budgeted_point.best_stats.scene_evictions
           << ",\"budgeted_peak_resident_bytes\":"
           << budgeted_point.best_stats.scene_peak_resident_bytes
           << ",\"budgeted_resident_bytes\":"
           << budgeted_point.best_stats.scene_resident_bytes
           << ",\"budgeted_resident_under_budget\":"
           << (resident_under_budget ? "true" : "false") << "}}";
    } else {
      print_banner(std::cout,
                   "Service throughput, backend " + backend + " (" +
                       backend_info.description + "), kernel " +
                       pipeline::to_string(kernel) + ", " +
                       std::to_string(workload.jobs) + " jobs x " +
                       std::to_string(repeat) + " passes per point");
      TablePrinter table({"Workers", "Throughput", "Speedup", "p50", "p95",
                          "p99", "Utilization"});
      std::vector<std::string> json_rows;
      double baseline_fps = 0.0;
      for (const int workers : worker_sweep()) {
        runtime::ServiceConfig config;
        config.workers = workers;
        config.backend = backend;
        config.renderer.kernel = kernel;
        config.queue_capacity =
            static_cast<std::size_t>(cli.get_positive_int("queue"));
        const MeasuredPoint point = measure(config);
        if (workers == 1) baseline_fps = point.fps_mean;
        const double speedup =
            baseline_fps > 0.0 ? point.fps_mean / baseline_fps : 0.0;
        table.add_row({std::to_string(workers),
                       format_fixed(point.fps_mean, 1) + " fps",
                       format_ratio(speedup, 2),
                       format_time_ms(point.best_stats.latency_p50_ms),
                       format_time_ms(point.best_stats.latency_p95_ms),
                       format_time_ms(point.best_stats.latency_p99_ms),
                       format_percent(point.best_stats.worker_utilization)});
        json_rows.push_back("{\"workers\":" + std::to_string(workers) +
                            ",\"throughput_mean_fps\":" +
                            format_fixed(point.fps_mean, 4) +
                            ",\"throughput_best_fps\":" +
                            format_fixed(point.fps_best, 4) +
                            ",\"speedup\":" + format_fixed(speedup, 4) +
                            ",\"stats\":" +
                            runtime::service_stats_json(point.best_stats) +
                            "}");
      }
      table.print(std::cout);
      json << "{\"schema\":\"gaurast-bench-service/v1\",\"backend\":\""
           << backend << "\",\"kernel\":\"" << pipeline::to_string(kernel)
           << "\",\"jobs\":" << workload.jobs
           << ",\"width\":" << workload.width
           << ",\"height\":" << workload.height
           << ",\"seed\":" << workload.seed << ",\"warmup\":" << warmup
           << ",\"repeat\":" << repeat << ",\"points\":[";
      for (std::size_t i = 0; i < json_rows.size(); ++i) {
        json << (i ? "," : "") << json_rows[i];
      }
      json << "]}";
    }

    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::trunc);
      if (!os.good()) {
        throw CliParseError("cannot write --json file '" + json_path + "'");
      }
      os << json.str() << '\n';
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
