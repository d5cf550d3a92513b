// RenderService — the concurrent render-serving front end.
//
// Owns one ThreadPool, a per-scene cache, and the shared (const, therefore
// thread-safe) engine::RenderBackend serving every job. Callers resolve a
// scene through the cache, submit() RenderRequests, and get futures back;
// one pool worker runs each job's three steps back to back, and the bounded
// request queue provides backpressure (submit blocks, try_submit rejects).
// Every completion feeds the aggregated service statistics: throughput,
// p50/p95/p99 latency, queue wait, queue depth, and worker utilization.
// These are the serving-side metrics the paper's FPS claims translate into
// under sustained multi-user traffic.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "common/mutex.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "engine/backend.hpp"
#include "engine/registry.hpp"
#include "runtime/job.hpp"
#include "runtime/thread_pool.hpp"
#include "scene/store.hpp"

namespace gaurast::runtime {

struct ServiceConfig {
  /// Pool size: frames rendered concurrently.
  int workers = 1;
  /// Request-queue bound.
  std::size_t queue_capacity = 64;
  /// Registry key resolved through engine::create() at service
  /// construction — any registered backend serves, built-in or not.
  std::string backend = "gaurast";
  /// Creation-time backend options (e.g. an external rasterizer config for
  /// backends whose capabilities accept one).
  engine::BackendOptions backend_options;
  /// Per-job pipeline settings. num_threads here is intra-frame (Step-2
  /// binning + Step-3 tile) parallelism on backends that support raster
  /// threads, multiplying with the worker-level inter-frame parallelism.
  /// `renderer.kernel` selects the Step-3 software kernel on backends whose
  /// capabilities advertise kernel selection; with the fast kernel, each
  /// pool worker reuses its thread-local pipeline::RasterScratch arena
  /// across jobs (workers are long-lived threads), so sustained serving
  /// performs no per-job SoA staging allocations after warm-up.
  pipeline::RendererConfig renderer;
  /// When set, served directly instead of resolving `backend` in the
  /// registry — for injecting a caller-constructed (e.g. test-double)
  /// backend.
  std::shared_ptr<const engine::RenderBackend> backend_instance;
  /// Resolves canonical scene keys for scene(); nullptr = a default
  /// scene::SyntheticSource (so "synthetic:<n>@<seed>" always serves).
  /// Inject a PlyDirectorySource, FunctionSource, or test double here.
  std::shared_ptr<const scene::SceneSource> scene_source;
  /// Scene-store accounted-byte budget (quantized payloads); 0 = unbounded.
  /// Over-budget residency triggers strict LRU eviction of unpinned scenes.
  std::size_t scene_budget_bytes = 0;
  /// Per-scene quantized-payload admission cap; 0 = none. Scenes over it
  /// are rejected with gaurast::Error, never materialized.
  std::size_t max_scene_bytes = 0;
};

/// Aggregated snapshot; all latencies in milliseconds. The latency_*
/// figures (mean, p50, p95, p99, max) cover only the last 65,536
/// completions (SampleWindow, common/stats.hpp), so a long-lived service
/// holds its stats memory flat; every counter and the queue-wait/service
/// means cover the service's whole life.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  ///< try_submit refusals (queue full)
  /// Accepted jobs whose deadline passed in the queue: shed by the worker
  /// before rendering. Not counted in `completed` — the latency/throughput
  /// figures describe rendered frames only.
  std::uint64_t deadline_dropped = 0;

  double wall_ms = 0.0;  ///< first submit -> last completion (or now)
  double throughput_fps = 0.0;

  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  double queue_wait_mean_ms = 0.0;
  double service_mean_ms = 0.0;

  double mean_queue_depth = 0.0;   ///< sampled at each submit
  double worker_utilization = 0.0; ///< busy time / (workers * wall)

  // Scene-store counters (scene::SceneStoreStats, surfaced per shard and
  // summed fleet-wide). hits/misses keep their historical names.
  std::uint64_t scene_cache_hits = 0;
  std::uint64_t scene_cache_misses = 0;
  std::uint64_t scene_evictions = 0;
  std::uint64_t scene_rejected = 0;
  std::uint64_t scene_resident_bytes = 0;
  std::uint64_t scene_peak_resident_bytes = 0;
  std::uint64_t scene_resident_count = 0;
};

/// Renders the stats as an aligned two-column table (common/table idiom).
void print_service_stats(std::ostream& os, const ServiceStats& stats);

/// One flat JSON object ({"submitted":...,"latency_p99_ms":...}) so bench
/// and CLI reports are machine-readable and diffable across PRs.
std::string service_stats_json(const ServiceStats& stats);

class RenderService {
 public:
  explicit RenderService(ServiceConfig config);
  /// Drains in-flight work and stops the pool.
  ~RenderService();

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  const ServiceConfig& config() const { return config_; }
  int worker_count() const { return pool_.worker_count(); }

  /// The backend every job is served through (registry-created from
  /// config().backend unless an instance was injected).
  const engine::RenderBackend& backend() const { return *backend_; }

  /// Resolves `key` through the scene store: a canonical scene key
  /// ("synthetic:<n>@<seed>", "ply:<path>", or whatever the injected
  /// SceneSource accepts), loaded single-flight on first request and
  /// served from the byte-budgeted cache afterwards. The returned pointer
  /// pins the scene against eviction for its lifetime. Throws
  /// gaurast::Error on resolution failure or admission rejection.
  ScenePtr scene(const std::string& key);

  /// The store every scene() call resolves through.
  const scene::SceneStore& scene_store() const { return store_; }

  /// Scenes currently resident in the store (eviction shrinks this).
  std::size_t cached_scene_count() const;

  /// Schedules a request, blocking while the queue is full (closed-loop
  /// backpressure). Throws gaurast::Error after shutdown().
  std::future<JobResult> submit(RenderRequest request);

  /// Non-blocking submit; std::nullopt (and a `rejected` tick in the stats)
  /// when the queue is full — open-loop load shedding.
  std::optional<std::future<JobResult>> try_submit(RenderRequest request);

  /// Blocks until every accepted job has completed.
  void drain();

  /// Stops intake, drains accepted jobs, joins the workers. Idempotent.
  void shutdown();

  ServiceStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  JobResult execute(RenderRequest request, Clock::time_point enqueue_time);
  std::function<JobResult()> make_task(RenderRequest request)
      GAURAST_EXCLUDES(stats_mutex_);
  void note_submitted(std::size_t queue_depth) GAURAST_EXCLUDES(stats_mutex_);
  void retract_submitted(std::size_t queue_depth)
      GAURAST_EXCLUDES(stats_mutex_);
  /// Rolls back a refused submission AND counts the rejection in one
  /// critical section, so a concurrent stats() snapshot never sees the
  /// retraction without the reject tick (or vice versa).
  void note_rejected(std::size_t queue_depth) GAURAST_EXCLUDES(stats_mutex_);
  void record_completion(const JobResult& result)
      GAURAST_EXCLUDES(stats_mutex_);
  void record_deadline_drop() GAURAST_EXCLUDES(stats_mutex_);

  ServiceConfig config_;
  std::shared_ptr<const engine::RenderBackend> backend_;
  engine::FrameOptions frame_options_;
  /// The byte-budgeted scene cache behind scene(); owns the hit/miss/
  /// eviction/residency counters surfaced in ServiceStats.
  scene::SceneStore store_;

  mutable common::Mutex stats_mutex_;
  std::uint64_t next_job_id_ GAURAST_GUARDED_BY(stats_mutex_) = 1;
  std::uint64_t submitted_ GAURAST_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t completed_ GAURAST_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t rejected_ GAURAST_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t deadline_dropped_ GAURAST_GUARDED_BY(stats_mutex_) = 0;
  double queue_depth_sum_ GAURAST_GUARDED_BY(stats_mutex_) = 0.0;
  double queue_wait_sum_ms_ GAURAST_GUARDED_BY(stats_mutex_) = 0.0;
  double service_sum_ms_ GAURAST_GUARDED_BY(stats_mutex_) = 0.0;
  /// The latency figures' sample set: the last 65,536 completions.
  SampleWindow latencies_ms_ GAURAST_GUARDED_BY(stats_mutex_);
  std::optional<Clock::time_point> first_submit_
      GAURAST_GUARDED_BY(stats_mutex_);
  std::optional<Clock::time_point> last_completion_
      GAURAST_GUARDED_BY(stats_mutex_);

  /// Declared last: its workers run jobs that touch every member above, so
  /// it must start after them and join before they are destroyed.
  ThreadPool pool_;
};

}  // namespace gaurast::runtime
