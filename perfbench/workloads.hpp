// The benchmark's three workloads, each driven from outside the program
// through public entry points only:
//
//   view_20k     one net::Client, closed loop, against an in-process
//                net::Server over a `sw` RenderService (fast kernel, one
//                worker, intra-frame threads = host cores); synthetic:20000
//                at 320x240 with images returned. A single AR/VR viewer.
//   fleet_small  open-loop Poisson arrivals over 4 connections through a
//                cluster::Router to 2 in-process shards (net::Server +
//                RenderService, 1 worker x 1 thread, scene budget below
//                the shard's working set); 12 scenes of 2000-3980 Gaussians
//                at 128x96. Many independent users.
//   hwmodel_8k   4 closed-loop threads calling RenderService::submit on a
//                4-worker `gaurast` service; synthetic:8000 at 160x120. The
//                simulator's host cost.
//
// Requests come from runtime::generate_workload with the run's seed; every
// request carries its own camera pose.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layers.hpp"
#include "net/protocol.hpp"
#include "scene/camera.hpp"

namespace perfbench {

/// The host the workloads are defined for: client threads, connections,
/// service workers and intra-frame raster threads never exceed this.
inline constexpr int kHostThreads = 4;

/// How a workload reaches its services: a net::Client to one net::Server,
/// net::Clients through a cluster::Router to shards, or in-process submits.
enum class Serving { kServer, kRouter, kInProcess };

struct WorkloadSpec {
  std::string name;
  Serving serving = Serving::kServer;
  /// Served by the GauRast hardware model (checked against direct
  /// GauRastDevice renders frame by frame).
  bool hardware_model = false;
  /// The latency_tail_ms percentile, taken per session: the highest of
  /// p80/p90/p95/p98/p99 that leaves several samples beyond it in every
  /// session of a default-length run.
  double tail_percentile = 0.0;
  /// slo_attainment counts OK responses within this client-side latency.
  double slo_ms = 0.0;
  /// Responses whose image is checked against the reference kernel; 0 =
  /// every response.
  std::size_t verify_sample = 0;
  /// modeled_raster_ms is the mean over this many leading requests of the
  /// seeded stream (a fixed set, so it repeats exactly per seed).
  std::size_t modeled_frames = 0;
  /// Fresh stacks a run measures, one after another, each for an equal
  /// share of the window. setup_s and the latency metrics are medians over
  /// them, so a host stall or a slow stack moves one session's figure by a
  /// rank rather than the whole run's (the same frames render in distinct
  /// speed modes from one session to the next on a shared 4-core host).
  int sessions = 1;
  /// Client threads / connections.
  int lanes = 1;
  /// Open-loop Poisson arrival rate; 0 = closed loop.
  double rate_hz = 0.0;
  int width = 0;
  int height = 0;
  /// Gaussian counts of the scenes requests draw from.
  std::vector<std::uint64_t> scene_sizes;
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// One generated request in both of its forms.
struct Request {
  std::string scene_key;
  gaurast::scene::Camera camera;
  gaurast::net::RenderRequest wire;  ///< same scene and pose, on the wire
  double arrival_ms = 0.0;           ///< open loop: offset from run start
};

/// Expands the workload's seeded request stream (runtime::generate_workload).
std::vector<Request> make_requests(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds);

/// One response as the client saw it.
struct Record {
  std::size_t index = 0;  ///< position in the request stream
  bool in_window = false;
  int session = -1;       ///< measured session; -1 for set-up and warm-up
  bool ok = false;
  double rtt_ms = 0.0;      ///< from the due time (open loop) or the send
  double send_lag_ms = 0.0; ///< open loop: how late the generator sent it
  double latency_ms = 0.0;  ///< service-reported submit -> done
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  double raster_model_ms = 0.0;  ///< hardware model only
  std::uint64_t hash = 0;
};

/// Everything one pass (its sessions' set-ups and windows) produced.
struct PassResult {
  std::vector<double> setup_s;  ///< one per session
  std::vector<Record> records;  ///< every response, set-up ones included
  double window_s = 0.0;        ///< summed over sessions
  double peak_rss_mb = 0.0;     ///< read before any verification
  int workers = 0;              ///< service workers across the stack

  // Layer readings over the measured windows.
  std::vector<double> route_overhead_ms;  ///< router samples, window only
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  std::uint64_t scene_hits = 0;
  std::uint64_t scene_misses = 0;
  std::uint64_t scene_evictions = 0;
  double scene_peak_resident_mb = 0.0;
};

/// Layer spans of a traced pass: frame spans are recorded inside measured
/// windows only; scene loads from the first set-up on.
struct Trace {
  SpanLog frames;
  SpanLog loads;
};

/// Runs one pass of spec.sessions sessions after one unmeasured warm-up
/// session of at most 2 s. Each sets up a fresh stack (timed to its first
/// OK response), warms every scene once, measures seconds / sessions of
/// load, and tears the stack down. `trace` injects the timing decorators.
/// Window records carry their session's number.
PassResult run_pass(const WorkloadSpec& spec,
                    const std::vector<Request>& requests, double seconds,
                    Trace* trace);

}  // namespace perfbench
