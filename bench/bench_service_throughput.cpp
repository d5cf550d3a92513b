// Render-service serving benchmark: one harness, five A/B comparisons.
//
// Every comparison drives one generated closed-loop request list through
// two or more serving sides and reports each side's client-side
// throughput and latency. A side is a topology:
//
//   inproc  lanes call RenderService::submit directly
//   wire    lanes talk to one net::Server over a loopback TCP socket
//   direct  2 loopback shards; each lane dials the scene's rendezvous
//           owner itself (the hash cluster::Router uses)
//   routed  the same 2 shards behind one cluster::Router
//
// plus its worker count (per shard), scene-store byte budget, and whether
// the seeded fault plan is armed around its lanes. --compare picks the
// sides:
//
//   sweep   inproc at 1, 2, 4, ... workers up to the core count, with
//           max(--clients, workers) lanes: how far inter-frame
//           parallelism scales (the serving side of the paper's FPS)
//   wire    inproc vs wire: what the protocol and the socket cost
//   fleet   direct vs routed: what the router hop costs
//   faults  routed clean vs routed faulted, every request carrying a
//           250 ms deadline, the faulted side under kFaultPlan at
//           cluster.forward: what retries, failovers and shedding cost
//   scenes  inproc unbounded vs inproc under a scene-store budget of half
//           the scene classes' quantized bytes, over a widened class mix
//           (--scene-size does not apply: half of one class admits none):
//           what bounding scene memory costs in LRU evictions and
//           re-admissions
//
// A pass builds fresh services, prewarms every scene class into them (so
// timing measures serving, not scene generation), and runs --clients
// closed-loop lanes that each take the next unclaimed request from the
// shared list. Every request carries its generated camera pose and asks
// for the image, so wire sides pay for pixels. Each answer is OK,
// deadline-exceeded, or unavailable; OVERLOADED is backed off and resent.
// On a side whose requests carry no deadline, any non-OK answer fails the
// run. Sides run interleaved (A, B, A, B, ...) for --warmup
// unmeasured and --repeat measured rounds, so slow machine-state drift
// lands on every side of a ratio. Throughput is the mean over measured
// passes; latencies, outcomes and the embedded stats come from the
// best-throughput pass. Stats are post-drain, so the budgeted side's
// resident bytes are what the store holds once render pins release (peak
// residency may overshoot the budget while every scene is pinned).
//
// --json writes one layout for every comparison, tagged
// gaurast-bench-service[-wire|-fleet|-faults|-scenes]/v2:
//
//   {"schema":...,"compare":...,"backend":...,"kernel":...,"jobs":...,
//    "width":...,"height":...,"seed":...,"warmup":...,"repeat":...,
//    "scene_classes":...,"deadline_ms":...,"fault_plan":...,
//    "modes":[{"mode":...,"topology":...,"workers":...,"clients":...,
//              "shards":...,"scene_budget_bytes":...,"faulted":...,
//              "throughput_mean_fps":...,"throughput_best_fps":...,
//              "latency_p50_ms":...,"latency_p95_ms":...,
//              "latency_p99_ms":...,"ok":...,"deadline_exceeded":...,
//              "unavailable":...,
//              "stats":[<runtime::service_stats_json>, one per shard]}],
//    "derived":{...}}
//
// Every mode record has the same keys; numbers that only make sense for
// one comparison (ratios, route overhead, retries, store counters) live
// under "derived". --help lists the flags; --backend takes any name in
// the engine registry (`gaurast_cli backends`), and --kernel selects the
// Step-3 software kernel on backends whose capabilities support it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "engine/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "pipeline/rasterize.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"
#include "scene/quantized.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;
using Clock = std::chrono::steady_clock;

constexpr int kShards = 2;
/// Servers listen on fixed ports, kShards to a block, trying up to
/// kPortAttempts blocks: HostDb ranks shards by host:port, so fixed ports
/// give every pass the same scene-to-shard split. The base sits below the
/// Linux ephemeral range (32768+) and clear of perfbench's 24610 block.
constexpr int kPortBase = 23610;
constexpr int kPortAttempts = 16;
constexpr std::uint32_t kDeadlineMs = 250;
/// Router-internal points only: a plan that hit net.client.* would make
/// the bench's own lanes misbehave. Seeded, so injections reproduce.
constexpr const char* kFaultPlan =
    "seed=11;cluster.forward:error:p=0.01;cluster.forward:delay=10:p=0.05";

const std::map<std::string, std::string> kSchemas = {
    {"sweep", "gaurast-bench-service/v2"},
    {"wire", "gaurast-bench-service-wire/v2"},
    {"fleet", "gaurast-bench-service-fleet/v2"},
    {"faults", "gaurast-bench-service-faults/v2"},
    {"scenes", "gaurast-bench-service-scenes/v2"},
};

enum class Topology { kInproc, kWire, kDirect, kRouted };
constexpr const char* kTopologyNames[] = {"inproc", "wire", "direct",
                                          "routed"};

struct Side {
  std::string name;
  Topology topology = Topology::kInproc;
  int workers = 1;                     ///< per shard
  int clients = 1;                     ///< closed-loop lanes
  std::size_t scene_budget_bytes = 0;  ///< 0 = unbounded store
  bool faulted = false;                ///< kFaultPlan armed around the lanes
};

/// One pass: client-side throughput, latency and outcomes, plus each
/// service's post-drain stats and the router's counters (routed only).
struct Pass {
  double fps = 0.0;                  ///< OK answers per lane-wall second
  std::vector<double> latencies_ms;  ///< OK round trips, ascending
  std::uint64_t ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t unavailable = 0;
  std::vector<runtime::ServiceStats> shards;
  cluster::RouterStatsSnapshot router;

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

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Starts one net::Server per service on the first free port block and
/// returns their ids.
std::vector<cluster::ShardId> start_servers(
    const std::vector<std::unique_ptr<runtime::RenderService>>& services,
    std::vector<std::unique_ptr<net::Server>>& servers) {
  for (int attempt = 0; attempt < kPortAttempts; ++attempt) {
    std::vector<cluster::ShardId> ids;
    try {
      for (std::size_t s = 0; s < services.size(); ++s) {
        net::ServerConfig config;
        config.port = kPortBase + kShards * attempt + static_cast<int>(s);
        servers.push_back(std::make_unique<net::Server>(*services[s], config));
        servers.back()->start();
        ids.push_back(cluster::ShardId{"127.0.0.1", config.port});
      }
      return ids;
    } catch (const Error&) {
      for (auto& server : servers) server->stop();
      servers.clear();
    }
  }
  throw Error("no free port block for the bench servers");
}

struct Harness {
  std::string backend;
  pipeline::RasterKernel kernel = pipeline::RasterKernel::kReference;
  int warmup = 0;
  int repeat = 1;
  std::uint32_t deadline_ms = 0;  ///< carried by every request; 0 = none
  /// Every scene class the request list touches, generated once; services
  /// resolve misses by copying from here, never by regenerating.
  std::map<std::string, scene::GaussianScene> scenes;
  std::vector<net::RenderRequest> requests;

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
    const bool fleet = side.topology == Topology::kDirect ||
                       side.topology == Topology::kRouted;
    const auto source = std::make_shared<const scene::FunctionSource>(
        [this](const std::string& key) { return scenes.at(key); });
    std::vector<std::unique_ptr<runtime::RenderService>> services;
    std::vector<std::unique_ptr<net::Server>> servers;
    for (int s = 0; s < (fleet ? kShards : 1); ++s) {
      runtime::ServiceConfig config;
      config.workers = side.workers;
      config.backend = backend;
      config.renderer.kernel = kernel;
      config.scene_source = source;
      config.scene_budget_bytes = side.scene_budget_bytes;
      services.push_back(std::make_unique<runtime::RenderService>(config));
      for (const auto& entry : scenes) services.back()->scene(entry.first);
    }
    std::vector<cluster::ShardId> ids;
    if (side.topology != Topology::kInproc) {
      ids = start_servers(services, servers);
    }
    std::optional<cluster::HostDb> db;
    if (!ids.empty()) db.emplace(ids);
    std::unique_ptr<cluster::Router> router;
    if (side.topology == Topology::kRouted) {
      cluster::RouterConfig config;
      // Sized so the router never sheds: outcomes reflect forwarding,
      // faults and deadlines, not the router's admission control.
      config.inflight_per_shard = side.clients;
      config.queue_per_shard = static_cast<int>(requests.size());
      router = std::make_unique<cluster::Router>(*db, config);
      router->start();
    }

    const auto lanes = static_cast<std::size_t>(side.clients);
    std::vector<std::vector<double>> latencies(lanes);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> unavailable{0};
    // One closed-loop client: the next unclaimed request, one at a time,
    // over lazily dialed connections (one per shard, or one to the router)
    // reused for the whole pass. Lanes share the cursor, so unequal frame
    // costs never leave one lane with a long tail while the others idle.
    const auto run_lane = [&](std::size_t lane) {
      std::vector<std::unique_ptr<net::Client>> conns(ids.size());
      const auto answer = [&](const net::RenderRequest& req) {
        if (side.topology == Topology::kInproc) {
          runtime::RenderService& service = *services.front();
          service.submit({service.scene(req.scene), req.camera()}).get();
          return net::RenderStatus::kOk;
        }
        const std::size_t slot =
            router ? 0 : db->hrw_order(req.scene).front();
        if (!conns[slot]) {
          conns[slot] = std::make_unique<net::Client>(
              "127.0.0.1", router ? router->port() : ids[slot].port);
        }
        return conns[slot]->render(req).status;
      };
      for (std::size_t i = cursor++; i < requests.size(); i = cursor++) {
        Clock::time_point start = Clock::now();
        net::RenderStatus status = answer(requests[i]);
        while (status == net::RenderStatus::kOverloaded) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          start = Clock::now();
          status = answer(requests[i]);
        }
        if (status == net::RenderStatus::kOk) {
          ok.fetch_add(1);
          latencies[lane].push_back(ms_since(start));
        } else if (status == net::RenderStatus::kDeadlineExceeded) {
          deadline_exceeded.fetch_add(1);
        } else {
          unavailable.fetch_add(1);
        }
      }
    };
    std::vector<std::exception_ptr> failures(lanes);
    if (side.faulted) fault::arm(kFaultPlan);
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
    if (side.faulted) fault::disarm();
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }

    Pass pass;
    if (router) {
      pass.router = router->stats_snapshot();
      router->stop();
    }
    for (const auto& server : servers) server->stop();
    for (const auto& service : services) {
      service->drain();
      pass.shards.push_back(service->stats());
    }
    pass.ok = ok.load();
    pass.deadline_exceeded = deadline_exceeded.load();
    pass.unavailable = unavailable.load();
    if (deadline_ms == 0 && pass.ok != requests.size()) {
      throw Error(side.name + " pass: " +
                  std::to_string(requests.size() - pass.ok) +
                  " request(s) without a deadline not served OK");
    }
    pass.fps = ratio(static_cast<double>(pass.ok) * 1000.0, wall_ms);
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
  os << "{\"mode\":\"" << side.name << "\",\"topology\":\""
     << kTopologyNames[static_cast<int>(side.topology)]
     << "\",\"workers\":" << side.workers
     << ",\"clients\":" << side.clients << ",\"shards\":" << best.shards.size()
     << ",\"scene_budget_bytes\":" << side.scene_budget_bytes
     << ",\"faulted\":" << (side.faulted ? "true" : "false")
     << ",\"throughput_mean_fps\":" << format_fixed(point.fps_mean, 4)
     << ",\"throughput_best_fps\":" << format_fixed(point.fps_best, 4)
     << ",\"latency_p50_ms\":" << format_fixed(best.latency_ms(0.50), 4)
     << ",\"latency_p95_ms\":" << format_fixed(best.latency_ms(0.95), 4)
     << ",\"latency_p99_ms\":" << format_fixed(best.latency_ms(0.99), 4)
     << ",\"ok\":" << best.ok << ",\"deadline_exceeded\":"
     << best.deadline_exceeded << ",\"unavailable\":" << best.unavailable
     << ",\"stats\":[";
  for (std::size_t i = 0; i < best.shards.size(); ++i) {
    os << (i ? "," : "") << runtime::service_stats_json(best.shards[i]);
  }
  os << "]}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_service_throughput");
  cli.add_flag("compare", "sweep",
               "sides to compare: sweep|wire|fleet|faults|scenes");
  cli.add_flag("jobs", "24", "frame requests per pass");
  cli.add_flag("backend", "sw",
               "Step-3 executor: " + engine::join_names(engine::names(), "|"));
  cli.add_flag("kernel", "reference",
               "Step-3 software kernel (reference|fast) on backends that "
               "support kernel selection");
  cli.add_flag("warmup", "1", "unmeasured rounds (one pass per side each)");
  cli.add_flag("repeat", "3", "measured rounds (one pass per side each)");
  cli.add_flag("width", "128", "render width");
  cli.add_flag("height", "96", "render height");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("scene-size", "0",
               "pin every request to one scene class of this many Gaussians "
               "(0 = the default size mix)");
  cli.add_flag("workers", "2",
               "service workers per shard (every comparison but sweep)");
  cli.add_flag("clients", "4", "closed-loop client lanes per pass");
  cli.add_flag("json", "", "write machine-readable results to this path");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string compare = cli.get_string("compare");
    if (!kSchemas.count(compare)) {
      throw CliParseError("unknown --compare '" + compare +
                          "' (expected sweep|wire|fleet|faults|scenes)");
    }
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
    const int scene_size = cli.get_int("scene-size");
    if (scene_size < 0) throw CliParseError("--scene-size must be >= 0");
    if (scene_size > 0 && compare == "scenes") {
      throw CliParseError(
          "--scene-size does not apply to --compare scenes (a budget of "
          "half one scene class cannot admit it)");
    }
    const int workers = cli.get_positive_int("workers");
    const int clients = cli.get_positive_int("clients");
    if (compare == "faults") bench.deadline_ms = kDeadlineMs;

    runtime::WorkloadConfig workload;
    workload.seed = cli.get_uint64("seed");
    workload.jobs = cli.get_positive_int("jobs");
    workload.width = cli.get_positive_int("width");
    workload.height = cli.get_positive_int("height");
    if (scene_size > 0) {
      workload.scene_sizes = {static_cast<std::uint64_t>(scene_size)};
    } else if (compare == "scenes") {
      // A class mix wide enough that the budgeted side cannot hold every
      // scene at once and must evict.
      workload.scene_sizes = {2000, 4000, 8000, 12000, 16000, 20000};
    }
    // The wire names a camera by (eye, target, up, fov); generated poses
    // share default_render_request's target, fov and up, so only the eye
    // varies per request.
    for (const runtime::WorkloadRequest& gen :
         runtime::generate_workload(workload)) {
      net::RenderRequest req = net::default_render_request(
          gen.gaussian_count, gen.scene_seed, workload.width, workload.height);
      const Vec3f eye = gen.camera.eye();
      req.eye[0] = eye.x;
      req.eye[1] = eye.y;
      req.eye[2] = eye.z;
      req.request_id = bench.requests.size() + 1;
      req.flags = net::kWantImage;
      req.deadline_ms = bench.deadline_ms;
      bench.requests.push_back(req);
      if (bench.scenes.count(gen.scene_key)) continue;
      scene::GeneratorParams params;
      params.gaussian_count = gen.gaussian_count;
      params.seed = gen.scene_seed;
      bench.scenes.emplace(gen.scene_key, scene::generate_scene(params));
    }

    std::vector<Side> sides;
    if (compare == "sweep") {
      for (const int w : worker_sweep()) {
        sides.push_back({"w" + std::to_string(w), Topology::kInproc, w,
                         std::max(clients, w)});
      }
    } else if (compare == "wire") {
      sides = {{"inproc", Topology::kInproc, workers, clients},
               {"wire", Topology::kWire, workers, clients}};
    } else if (compare == "fleet") {
      sides = {{"direct", Topology::kDirect, workers, clients},
               {"routed", Topology::kRouted, workers, clients}};
    } else if (compare == "faults") {
      sides = {{"clean", Topology::kRouted, workers, clients},
               {"faulted", Topology::kRouted, workers, clients, 0, true}};
    } else {
      // Half the classes' quantized bytes (the store's accounting unit):
      // roughly half the working set is evicted at any moment.
      std::size_t class_bytes = 0;
      for (const auto& entry : bench.scenes) {
        class_bytes += scene::quantize(entry.second).resident_bytes();
      }
      sides = {{"unbounded", Topology::kInproc, workers, clients},
               {"budgeted", Topology::kInproc, workers, clients,
                class_bytes / 2}};
    }

    print_banner(std::cout,
                 "Service bench --compare " + compare + ", backend " +
                     bench.backend + ", kernel " +
                     pipeline::to_string(bench.kernel) + ", " +
                     std::to_string(workload.jobs) + " jobs x " +
                     std::to_string(bench.repeat) + " passes per side");
    const std::vector<Point> points = bench.compare(sides);

    // Comparison-specific numbers; values are pre-formatted JSON.
    std::vector<std::pair<std::string, std::string>> derived;
    const auto add = [&derived](const std::string& key, double value,
                                int digits = 4) {
      derived.emplace_back(key, format_fixed(value, digits));
    };
    const double relative = ratio(points.back().fps_mean, points[0].fps_mean);
    const Pass& last = points.back().best;
    if (compare == "sweep") {
      add("sweep_speedup", relative);
    } else if (compare == "wire") {
      add("wire_relative_throughput", relative);
    } else if (compare == "fleet") {
      std::vector<double> overhead = last.router.route_overhead_ms;
      std::sort(overhead.begin(), overhead.end());
      add("routed_relative_throughput", relative);
      add("route_overhead_mean_ms",
          ratio(std::accumulate(overhead.begin(), overhead.end(), 0.0),
                static_cast<double>(overhead.size())));
      add("route_overhead_p95_ms", percentile_sorted(overhead, 0.95));
    } else if (compare == "faults") {
      add("faulted_relative_throughput", relative);
      add("faulted_deadline_hit_rate",
          ratio(static_cast<double>(last.deadline_exceeded),
                static_cast<double>(bench.requests.size())),
          6);
      add("faulted_p99_ms", last.latency_ms(0.99));
      add("faulted_retries", static_cast<double>(last.router.retries), 0);
      add("faulted_failovers", static_cast<double>(last.router.failovers), 0);
    } else {
      const runtime::ServiceStats& store = last.shards.front();
      add("budgeted_relative_throughput", relative);
      add("budgeted_hit_rate",
          ratio(static_cast<double>(store.scene_cache_hits),
                static_cast<double>(store.scene_cache_hits +
                                    store.scene_cache_misses)),
          6);
      add("budgeted_evictions", static_cast<double>(store.scene_evictions), 0);
      add("budgeted_peak_resident_bytes",
          static_cast<double>(store.scene_peak_resident_bytes), 0);
      add("budgeted_resident_bytes",
          static_cast<double>(store.scene_resident_bytes), 0);
      derived.emplace_back(
          "budgeted_resident_under_budget",
          store.scene_resident_bytes <= sides.back().scene_budget_bytes
              ? "true"
              : "false");
    }

    TablePrinter table({"Mode", "Workers", "Clients", "Throughput", "p50",
                        "p95", "p99", "OK/deadline/unavail"});
    for (std::size_t s = 0; s < sides.size(); ++s) {
      const Pass& best = points[s].best;
      table.add_row(
          {sides[s].name, std::to_string(sides[s].workers),
           std::to_string(sides[s].clients),
           format_fixed(points[s].fps_mean, 1) + " fps",
           format_time_ms(best.latency_ms(0.50)),
           format_time_ms(best.latency_ms(0.95)),
           format_time_ms(best.latency_ms(0.99)),
           std::to_string(best.ok) + "/" +
               std::to_string(best.deadline_exceeded) + "/" +
               std::to_string(best.unavailable)});
    }
    table.print(std::cout);
    for (const auto& [key, value] : derived) {
      std::cout << key << ": " << value << '\n';
    }

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::trunc);
      if (!os.good()) {
        throw CliParseError("cannot write --json file '" + json_path + "'");
      }
      os << "{\"schema\":\"" << kSchemas.at(compare) << "\",\"compare\":\""
         << compare << "\",\"backend\":\"" << bench.backend
         << "\",\"kernel\":\"" << pipeline::to_string(bench.kernel)
         << "\",\"jobs\":" << workload.jobs << ",\"width\":" << workload.width
         << ",\"height\":" << workload.height << ",\"seed\":" << workload.seed
         << ",\"warmup\":" << bench.warmup << ",\"repeat\":" << bench.repeat
         << ",\"scene_classes\":" << bench.scenes.size()
         << ",\"deadline_ms\":" << bench.deadline_ms << ",\"fault_plan\":\""
         << kFaultPlan << "\",\"modes\":[";
      for (std::size_t s = 0; s < sides.size(); ++s) {
        os << (s ? "," : "") << mode_json(sides[s], points[s]);
      }
      os << "],\"derived\":{";
      for (std::size_t d = 0; d < derived.size(); ++d) {
        os << (d ? "," : "") << '"' << derived[d].first
           << "\":" << derived[d].second;
      }
      os << "}}\n";
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
