#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "engine/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"

namespace perfbench {

namespace cluster = gaurast::cluster;
namespace engine = gaurast::engine;
namespace net = gaurast::net;
namespace runtime = gaurast::runtime;
namespace scene = gaurast::scene;

namespace {

/// fleet_small: each shard's scene budget as a share of the quantized
/// bytes of the scenes it owns, so the store misses and evicts in steady
/// state.
constexpr double kFleetBudgetShare = 0.5;
/// Shards listen on fixed ports: the router hashes scenes to shards by
/// host:port, so ephemeral ports would re-deal scenes between shards on
/// every run. The next pair is tried when one is taken.
constexpr int kFleetPortBase = 24610;
constexpr int kFleetPortAttempts = 16;

/// Longest unmeasured warm-up session: the first stack's slow start lasts
/// a second or two.
constexpr double kWarmupSeconds = 2.0;

/// fleet_small's 12 small scenes, 2000-3980 Gaussians.
std::vector<std::uint64_t> fleet_scene_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t i = 0; i < 12; ++i) sizes.push_back(2000 + 180 * i);
  return sizes;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "view_20k",
       .serving = Serving::kServer,
       .tail_percentile = 90.0,
       .slo_ms = 150.0,
       .verify_sample = 12,
       .modeled_frames = 4,
       // About a third of fresh stacks render at ~1.5x the frame time of the
       // rest (p50 ~90 vs ~58 ms). With 8 sessions the slow count per run
       // swung 0-5 and p90 with it (0.31 of its median over ten seeds); 24
       // short sessions average over three times as many draws.
       .sessions = 24,
       .lanes = 1,
       .width = 320,
       .height = 240,
       .scene_sizes = {20000}},
      {.name = "fleet_small",
       .serving = Serving::kRouter,
       // ~125 arrivals a session in a 25 s run, ~12 beyond p90. A pooled
       // p98 or p90 spread past 0.25 of its median over ten seeds of the
       // same code on a drifting host: a few slow sessions fill the pooled
       // tail.
       .tail_percentile = 90.0,
       .slo_ms = 100.0,
       // A seeded sample: checking every response cost ~6 s of a 15 s run.
       .verify_sample = 300,
       .modeled_frames = 64,
       // Session p50s within one run ranged 11-23 ms on a drifting host;
       // the latency metrics are medians over these 12.
       .sessions = 12,
       .lanes = kHostThreads,
       // Routed closed-loop capacity of this shape is ~166 fps on a 4-core
       // host: 60/s keeps the fleet serving, not saturated.
       .rate_hz = 60.0,
       .width = 128,
       .height = 96,
       .scene_sizes = fleet_scene_sizes()},
      {.name = "hwmodel_8k",
       .serving = Serving::kInProcess,
       .hardware_model = true,
       .tail_percentile = 80.0,
       // 3x the p50: at 1500 ms a slow host phase (p50 ~1.3 s) moved the
       // attainment 0.75-1.0 between seeds with no change in the code.
       .slo_ms = 2500.0,
       .modeled_frames = 32,
       // ~30 frames a session in a 25 s run, ~6 beyond each session's p80
       // (~24 over the run). Two sessions of ~60 frames steadied nothing:
       // host drift between runs sets this workload's spread.
       .sessions = 4,
       .lanes = kHostThreads,
       .width = 160,
       .height = 120,
       .scene_sizes = {8000}},
  };
  return all;
}

bool open_loop(const WorkloadSpec& spec) { return spec.rate_hz > 0.0; }

runtime::WorkloadConfig workload_config(const WorkloadSpec& spec,
                                        std::uint64_t seed, double seconds) {
  runtime::WorkloadConfig config;
  config.seed = seed;
  config.scene_sizes = spec.scene_sizes;
  config.width = spec.width;
  config.height = spec.height;
  if (open_loop(spec)) {
    config.arrival = runtime::ArrivalModel::kPoisson;
    config.rate_hz = spec.rate_hz;
  }
  // Enough requests that a run never reuses a pose: open-loop arrivals
  // cover the window with margin; closed loops stay far below 200 fps.
  const double per_second = open_loop(spec) ? 2.0 * spec.rate_hz : 200.0;
  config.jobs = static_cast<int>(std::ceil(per_second * seconds)) + 256;
  return config;
}

/// Scene-store counters summed over a stack's services.
struct StoreReading {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t peak_resident_bytes = 0;
};

bool image_ok(const net::RenderRequest& wire, const net::RenderResponse& resp) {
  return resp.status == net::RenderStatus::kOk && resp.has_image &&
         resp.image_width == wire.width && resp.image_height == wire.height &&
         resp.pixels.size() ==
             std::size_t(wire.width) * std::size_t(wire.height) * 3;
}

/// A workload's server side plus its client lanes (connections or
/// submitting threads), set up in the constructor and torn down in the
/// destructor.
class Stack {
 public:
  virtual ~Stack() = default;
  /// Sends `req` on `lane` and blocks for the response, filling `rec`.
  /// Returns when the response arrived (before it was hashed).
  virtual Clock::time_point call(int lane, const Request& req,
                                 Record& rec) = 0;
  /// Marks the start of a measured window.
  virtual void window_started() { store_before_ = read_store(); }
  /// Adds the layer counters of the window that just closed to `out`.
  virtual void collect(PassResult& out) const {
    const StoreReading after = read_store();
    out.scene_hits += after.hits - store_before_.hits;
    out.scene_misses += after.misses - store_before_.misses;
    out.scene_evictions += after.evictions - store_before_.evictions;
    out.scene_peak_resident_mb =
        std::max(out.scene_peak_resident_mb,
                 double(after.peak_resident_bytes) / (1024.0 * 1024.0));
  }
  int workers() const {
    int total = 0;
    for (const auto& service : services_) total += service->worker_count();
    return total;
  }

 protected:
  /// Creates a service, with the timing decorators when tracing.
  runtime::RenderService& add_service(runtime::ServiceConfig config,
                                      Trace* trace) {
    if (trace != nullptr) {
      config.backend_instance = std::make_shared<TracedBackend>(
          std::shared_ptr<const engine::RenderBackend>(
              engine::create(config.backend)),
          trace->frames);
      config.scene_source = std::make_shared<TracedSource>(trace->loads);
    }
    services_.push_back(std::make_unique<runtime::RenderService>(config));
    return *services_.back();
  }

  std::vector<std::unique_ptr<runtime::RenderService>> services_;

 private:
  StoreReading read_store() const {
    StoreReading reading;
    for (const auto& service : services_) {
      const runtime::ServiceStats stats = service->stats();
      reading.hits += stats.scene_cache_hits;
      reading.misses += stats.scene_cache_misses;
      reading.evictions += stats.scene_evictions;
      reading.peak_resident_bytes += stats.scene_peak_resident_bytes;
    }
    return reading;
  }

  StoreReading store_before_;
};

/// Blocking wire clients, one per lane.
class WireLanes {
 public:
  void connect(int port, int lanes) {
    for (int i = 0; i < lanes; ++i) {
      clients_.push_back(std::make_unique<net::Client>("127.0.0.1", port));
    }
  }
  void close() { clients_.clear(); }

  Clock::time_point call(int lane, const Request& req, Record& rec) {
    net::Client& client = *clients_.at(static_cast<std::size_t>(lane));
    net::RenderResponse resp;
    try {
      if (!client.is_alive()) client.reconnect();
      resp = client.render(req.wire);
    } catch (const std::exception&) {
      rec.ok = false;
      return Clock::now();
    }
    const Clock::time_point done = Clock::now();
    rec.ok = image_ok(req.wire, resp);
    rec.latency_ms = resp.latency_ms;
    rec.queue_wait_ms = resp.queue_wait_ms;
    rec.service_ms = resp.service_ms;
    if (rec.ok) rec.hash = hash_floats(resp.pixels.data(), resp.pixels.size());
    return done;
  }

 private:
  std::vector<std::unique_ptr<net::Client>> clients_;
};

class ViewStack : public Stack {
 public:
  ViewStack(const WorkloadSpec& spec, Trace* trace) {
    runtime::ServiceConfig config;
    config.workers = 1;
    config.backend = "sw";
    config.renderer.kernel = gaurast::pipeline::RasterKernel::kFast;
    config.renderer.num_threads = kHostThreads;
    server_ = std::make_unique<net::Server>(add_service(config, trace),
                                            net::ServerConfig{});
    server_->start();
    lanes_.connect(server_->port(), spec.lanes);
  }
  ~ViewStack() override {
    lanes_.close();
    server_->stop();
  }

  Clock::time_point call(int lane, const Request& req, Record& rec) override {
    return lanes_.call(lane, req, rec);
  }

 private:
  std::unique_ptr<net::Server> server_;
  WireLanes lanes_;
};

/// Per-pass fleet inputs computed before any stack is timed: the distinct
/// scene keys and their quantized sizes.
struct FleetPlan {
  std::vector<std::string> keys;
  std::map<std::string, std::size_t> bytes;
};

FleetPlan plan_fleet(const std::vector<Request>& requests) {
  FleetPlan plan;
  const scene::SyntheticSource source;
  for (const Request& req : requests) {
    if (plan.bytes.count(req.scene_key) != 0) continue;
    plan.keys.push_back(req.scene_key);
    plan.bytes[req.scene_key] =
        source.resolve_quantized(req.scene_key, 0).resident_bytes();
  }
  return plan;
}

class FleetStack : public Stack {
 public:
  FleetStack(const WorkloadSpec& spec, const FleetPlan& plan, Trace* trace) {
    for (int attempt = 0; attempt < kFleetPortAttempts; ++attempt) {
      std::vector<cluster::ShardId> ids;
      for (int s = 0; s < 2; ++s) {
        ids.push_back(cluster::ShardId{"127.0.0.1",
                                       kFleetPortBase + 2 * attempt + s});
      }
      if (start_shards(plan, ids, trace)) {
        db_ = std::make_unique<cluster::HostDb>(ids);
        break;
      }
    }
    if (!db_) throw std::runtime_error("no free port pair for the shards");
    router_ = std::make_unique<cluster::Router>(*db_, cluster::RouterConfig{});
    router_->start();
    lanes_.connect(router_->port(), spec.lanes);
  }
  ~FleetStack() override {
    lanes_.close();
    if (router_) router_->stop();
    for (auto& server : servers_) server->stop();
  }

  Clock::time_point call(int lane, const Request& req, Record& rec) override {
    return lanes_.call(lane, req, rec);
  }
  void window_started() override {
    Stack::window_started();
    router_before_ = router_->stats_snapshot();
  }
  void collect(PassResult& out) const override {
    Stack::collect(out);
    const cluster::RouterStatsSnapshot snap = router_->stats_snapshot();
    const auto first_new = static_cast<std::ptrdiff_t>(
        router_before_.route_overhead_ms.size());
    out.route_overhead_ms.insert(out.route_overhead_ms.end(),
                                 snap.route_overhead_ms.begin() + first_new,
                                 snap.route_overhead_ms.end());
    out.retries += snap.retries - router_before_.retries;
    out.shed += snap.shed - router_before_.shed;
  }

 private:
  /// Starts both shards on `ids`; false (and nothing left running) when a
  /// port is taken.
  bool start_shards(const FleetPlan& plan,
                    const std::vector<cluster::ShardId>& ids, Trace* trace) {
    const cluster::HostDb hashing(ids);
    std::vector<std::size_t> owned(ids.size(), 0);
    std::vector<std::size_t> largest(ids.size(), 0);
    for (const std::string& key : plan.keys) {
      const std::size_t owner = hashing.hrw_order(key).front();
      owned[owner] += plan.bytes.at(key);
      largest[owner] = std::max(largest[owner], plan.bytes.at(key));
    }
    try {
      for (std::size_t s = 0; s < ids.size(); ++s) {
        runtime::ServiceConfig config;
        config.workers = 1;
        config.backend = "sw";
        config.renderer.kernel = gaurast::pipeline::RasterKernel::kFast;
        config.renderer.num_threads = 1;
        // Below the owned working set, but never below one scene, which
        // the store would refuse outright.
        config.scene_budget_bytes = std::max(
            static_cast<std::size_t>(kFleetBudgetShare * double(owned[s])),
            largest[s]);
        net::ServerConfig server_config;
        server_config.port = ids[s].port;
        servers_.push_back(std::make_unique<net::Server>(
            add_service(config, trace), server_config));
        servers_.back()->start();
      }
      return true;
    } catch (const gaurast::Error&) {
      for (auto& server : servers_) server->stop();
      servers_.clear();
      services_.clear();
      return false;
    }
  }

  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<cluster::HostDb> db_;
  std::unique_ptr<cluster::Router> router_;
  WireLanes lanes_;
  cluster::RouterStatsSnapshot router_before_;
};

class InProcessStack : public Stack {
 public:
  explicit InProcessStack(Trace* trace) {
    runtime::ServiceConfig config;
    config.workers = kHostThreads;
    config.backend = "gaurast";
    service_ = &add_service(config, trace);
  }

  Clock::time_point call(int, const Request& req, Record& rec) override {
    runtime::JobResult result;
    try {
      runtime::ScenePtr scene = service_->scene(req.scene_key);
      result = service_->submit({std::move(scene), req.camera}).get();
    } catch (const std::exception&) {
      rec.ok = false;
      return Clock::now();
    }
    const Clock::time_point done = Clock::now();
    const gaurast::Image& image = result.frame.image;
    rec.ok = !result.deadline_expired && image.width() == req.wire.width &&
             image.height() == req.wire.height;
    rec.latency_ms = result.latency_ms;
    rec.queue_wait_ms = result.queue_wait_ms;
    rec.service_ms = result.service_ms;
    rec.raster_model_ms = result.raster_model_ms;
    if (rec.ok) rec.hash = hash_image(image);
    return done;
  }

 private:
  runtime::RenderService* service_ = nullptr;
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs()) names.push_back(spec.name);
  return names;
}

std::vector<Request> make_requests(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds) {
  const runtime::WorkloadConfig config = workload_config(spec, seed, seconds);
  std::vector<Request> requests;
  for (const runtime::WorkloadRequest& gen :
       runtime::generate_workload(config)) {
    // The seed varies poses and arrivals; scenes are the canonical
    // "synthetic:<n>" ones (the generator's default scene seed), so runs at
    // different seeds measure the same scenes rather than re-rolling them.
    const scene::SceneKey key = scene::parse_scene_key(
        "synthetic:" + std::to_string(gen.gaussian_count));
    // The wire names a camera by (eye, target, up, fov); the generator's
    // poses share default_render_request's target, fov and up, so only the
    // eye travels per request. The round trip must be bit-exact.
    net::RenderRequest wire = net::default_render_request(
        key.count, key.seed, config.width, config.height);
    const gaurast::Vec3f eye = gen.camera.eye();
    wire.eye[0] = eye.x;
    wire.eye[1] = eye.y;
    wire.eye[2] = eye.z;
    wire.scene = key.canonical();
    wire.flags = net::kWantImage;
    wire.request_id = requests.size() + 1;
    scene::Camera camera = wire.camera();
    if (std::memcmp(camera.view().m.data(), gen.camera.view().m.data(),
                    sizeof(float) * 16) != 0) {
      throw std::runtime_error(
          "a generated camera pose does not survive the wire encoding");
    }
    requests.push_back(
        Request{wire.scene, std::move(camera), wire, gen.arrival_offset_ms});
  }
  return requests;
}

PassResult run_pass(const WorkloadSpec& spec,
                    const std::vector<Request>& requests, double seconds,
                    Trace* trace) {
  const int sessions = spec.sessions;
  if (trace != nullptr) trace->frames.set_recording(false);
  PassResult out;
  const FleetPlan fleet_plan =
      open_loop(spec) ? plan_fleet(requests) : FleetPlan{};
  const auto make_stack = [&]() -> std::unique_ptr<Stack> {
    switch (spec.serving) {
      case Serving::kServer:
        return std::make_unique<ViewStack>(spec, trace);
      case Serving::kRouter:
        return std::make_unique<FleetStack>(spec, fleet_plan, trace);
      case Serving::kInProcess:
        break;
    }
    return std::make_unique<InProcessStack>(trace);
  };
  const auto send = [&](Stack& stack, int lane, std::size_t index) {
    Record rec;
    rec.index = index;
    const Clock::time_point start = Clock::now();
    const Clock::time_point done = stack.call(lane, requests[index], rec);
    rec.rtt_ms = ms_between(start, done);
    return rec;
  };
  // The first request of each distinct scene: the warm-up set.
  std::vector<std::size_t> scene_firsts;
  {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (seen.insert(requests[i].scene_key).second) scene_firsts.push_back(i);
    }
  }

  const int lanes = spec.lanes;
  const double session_s = seconds / sessions;
  std::size_t next = 0;  // next unused position in the request stream
  // Session -1 is an unmeasured warm-up: the process's first stack runs
  // markedly slower at times (fleet_small p50 up to 3x for its first ~2 s),
  // which no later session shows.
  for (int session = -1; session < sessions; ++session) {
    const bool measured = session >= 0;
    const double length_s =
        measured ? session_s : std::min(session_s, kWarmupSeconds);
    // Set-up: from constructing the first server-side object to the first
    // OK response, cold scene included.
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Stack> stack = make_stack();
    const Record first = send(*stack, 0, next % requests.size());
    if (measured) out.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    out.records.push_back(first);
    if (!first.ok) throw std::runtime_error("set-up request failed");
    out.workers = stack->workers();
    ++next;

    // Untimed warm-up: every scene of the stream is requested once, the
    // way a client uploads its scene before its session starts.
    for (std::size_t index : scene_firsts) {
      if (requests[index].scene_key != requests[first.index].scene_key) {
        out.records.push_back(send(*stack, 0, index));
      }
    }

    if (trace != nullptr) trace->frames.set_recording(measured);
    stack->window_started();
    std::vector<std::vector<Record>> lane_records(
        static_cast<std::size_t>(lanes));
    std::vector<Clock::time_point> lane_done(static_cast<std::size_t>(lanes));
    std::atomic<std::size_t> cursor{next};
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(length_s));

    const auto closed_lane = [&](int lane) {
      auto& mine = lane_records[static_cast<std::size_t>(lane)];
      while (Clock::now() < end) {
        const std::size_t index = cursor.fetch_add(1) % requests.size();
        Record rec = send(*stack, lane, index);
        rec.in_window = measured;
        rec.session = session;
        mine.push_back(rec);
      }
      lane_done[static_cast<std::size_t>(lane)] = Clock::now();
    };
    // Open loop: a fixed number of arrivals (rate x session length). Each
    // lane takes the next one, sleeps until it is due and sends it; a lane
    // still busy when an arrival falls due sends it late, and the response
    // is timed from the due time, so the stall counts.
    const std::size_t open_end = std::min(
        requests.size(),
        next + static_cast<std::size_t>(
                   std::llround(spec.rate_hz * length_s)));
    const double base_ms = requests[next % requests.size()].arrival_ms;
    const auto open_lane = [&](int lane) {
      auto& mine = lane_records[static_cast<std::size_t>(lane)];
      for (;;) {
        const std::size_t index = cursor.fetch_add(1);
        if (index >= open_end) break;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            requests[index].arrival_ms - base_ms));
        std::this_thread::sleep_until(due);
        Record rec = send(*stack, lane, index);
        const double lag = ms_between(due, Clock::now()) - rec.rtt_ms;
        rec.send_lag_ms = std::max(0.0, lag);
        rec.rtt_ms += rec.send_lag_ms;
        rec.in_window = measured;
        rec.session = session;
        mine.push_back(rec);
      }
      lane_done[static_cast<std::size_t>(lane)] = Clock::now();
    };

    std::vector<std::thread> threads;
    for (int lane = 0; lane < lanes; ++lane) {
      if (open_loop(spec)) {
        threads.emplace_back(open_lane, lane);
      } else {
        threads.emplace_back(closed_lane, lane);
      }
    }
    for (std::thread& t : threads) t.join();
    const Clock::time_point last_done =
        *std::max_element(lane_done.begin(), lane_done.end());
    if (trace != nullptr) trace->frames.set_recording(false);
    if (measured) {
      out.window_s += ms_between(start, last_done) / 1000.0;
      stack->collect(out);
    }
    next = open_loop(spec) ? open_end : cursor.load();
    for (auto& recs : lane_records) {
      out.records.insert(out.records.end(), recs.begin(), recs.end());
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
