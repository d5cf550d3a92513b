#include "runtime/service.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace gaurast::runtime {

namespace {

double to_ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             d)
      .count();
}

/// The backend every job runs through: the injected instance when the
/// caller supplied one, otherwise a registry creation of the named key.
std::shared_ptr<const engine::RenderBackend> resolve_backend(
    const ServiceConfig& cfg) {
  if (cfg.backend_instance) return cfg.backend_instance;
  return engine::create(cfg.backend, cfg.backend_options);
}

engine::FrameOptions frame_options_for(const ServiceConfig& cfg) {
  engine::FrameOptions options;
  options.pipeline = cfg.renderer;
  return options;
}

scene::SceneStoreConfig store_config_for(const ServiceConfig& cfg) {
  scene::SceneStoreConfig store;
  store.max_bytes = cfg.scene_budget_bytes;
  store.max_scene_bytes = cfg.max_scene_bytes;
  store.source = cfg.scene_source
                     ? cfg.scene_source
                     : std::make_shared<const scene::SyntheticSource>();
  return store;
}

}  // namespace

RenderService::RenderService(ServiceConfig config)
    : config_(std::move(config)),
      backend_(resolve_backend(config_)),
      frame_options_(frame_options_for(config_)),
      store_(store_config_for(config_)),
      pool_(ThreadPoolConfig{config_.workers, config_.queue_capacity}) {}

RenderService::~RenderService() { shutdown(); }

ScenePtr RenderService::scene(const std::string& key) {
  return store_.acquire(key);
}

std::size_t RenderService::cached_scene_count() const {
  return store_.resident_scenes();
}

JobResult RenderService::execute(RenderRequest request,
                                 Clock::time_point enqueue_time) {
  // The request is consumed by the job; keep its completion hook alive so
  // it fires with the final timed result.
  auto on_complete = std::move(request.on_complete);
  request.on_complete = nullptr;
  const Clock::time_point start = Clock::now();
  if (request.deadline && start > *request.deadline) {
    // The deadline passed while the job sat in the queue: rendering now
    // would burn a worker on a frame nobody can use. Shed it — but the job
    // still completes its lifecycle (future resolves, on_complete fires),
    // so no accepted job is ever lost.
    JobResult result;
    result.job_id = request.id;
    result.deadline_expired = true;
    result.queue_wait_ms = to_ms(start - enqueue_time);
    result.latency_ms = result.queue_wait_ms;
    record_deadline_drop();
    if (on_complete) on_complete(result);
    return result;
  }
  JobResult result =
      FrameJob(*backend_, frame_options_, std::move(request)).execute();
  const Clock::time_point end = Clock::now();
  result.queue_wait_ms = to_ms(start - enqueue_time);
  result.service_ms = to_ms(end - start);
  result.latency_ms = to_ms(end - enqueue_time);
  record_completion(result);
  if (on_complete) on_complete(result);
  return result;
}

std::function<JobResult()> RenderService::make_task(RenderRequest request) {
  GAURAST_CHECK(request.scene != nullptr);
  const Clock::time_point enqueue_time = Clock::now();
  {
    common::MutexLock lock(stats_mutex_);
    request.id = next_job_id_++;
  }
  return [this, request = std::move(request), enqueue_time]() mutable {
    return execute(std::move(request), enqueue_time);
  };
}

void RenderService::note_submitted(std::size_t queue_depth) {
  common::MutexLock lock(stats_mutex_);
  ++submitted_;
  queue_depth_sum_ += static_cast<double>(queue_depth);
  if (!first_submit_) first_submit_ = Clock::now();
}

void RenderService::retract_submitted(std::size_t queue_depth) {
  common::MutexLock lock(stats_mutex_);
  --submitted_;
  queue_depth_sum_ -= static_cast<double>(queue_depth);
}

void RenderService::note_rejected(std::size_t queue_depth) {
  common::MutexLock lock(stats_mutex_);
  --submitted_;
  queue_depth_sum_ -= static_cast<double>(queue_depth);
  ++rejected_;
}

void RenderService::record_completion(const JobResult& result) {
  common::MutexLock lock(stats_mutex_);
  ++completed_;
  queue_wait_sum_ms_ += result.queue_wait_ms;
  service_sum_ms_ += result.service_ms;
  latencies_ms_.add(result.latency_ms);
  last_completion_ = Clock::now();
}

void RenderService::record_deadline_drop() {
  common::MutexLock lock(stats_mutex_);
  // Not a completion: the latency samples and throughput describe rendered
  // frames only. The drop has its own counter.
  ++deadline_dropped_;
  last_completion_ = Clock::now();
}

std::future<JobResult> RenderService::submit(RenderRequest request) {
  auto task = std::make_shared<std::packaged_task<JobResult()>>(
      make_task(std::move(request)));
  std::future<JobResult> future = task->get_future();
  // Count the submission before the pool can run it, so a snapshot never
  // shows more completions than submissions; roll back if intake refuses
  // (pool already shut down).
  const std::size_t depth = pool_.queue_depth();
  note_submitted(depth);
  try {
    pool_.submit([task] { (*task)(); });
  } catch (...) {
    retract_submitted(depth);
    throw;
  }
  return future;
}

std::optional<std::future<JobResult>> RenderService::try_submit(
    RenderRequest request) {
  auto task = std::make_shared<std::packaged_task<JobResult()>>(
      make_task(std::move(request)));
  std::future<JobResult> future = task->get_future();
  const std::size_t depth = pool_.queue_depth();
  note_submitted(depth);
  if (!pool_.try_submit([task] { (*task)(); })) {
    note_rejected(depth);
    return std::nullopt;
  }
  return future;
}

void RenderService::drain() {
  pool_.wait_idle();
  // Render pins released with the drained jobs; re-fit the scene budget so
  // an idle service is not left holding a transient overshoot.
  store_.trim();
}

void RenderService::shutdown() { pool_.shutdown(); }

ServiceStats RenderService::stats() const {
  ServiceStats s;
  std::vector<double> latencies;
  Clock::time_point window_begin{};
  Clock::time_point window_end{};
  bool have_window = false;
  {
    common::MutexLock lock(stats_mutex_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.deadline_dropped = deadline_dropped_;
    latencies = latencies_ms_.samples();
    if (first_submit_) {
      window_begin = *first_submit_;
      window_end = last_completion_ ? *last_completion_ : Clock::now();
      have_window = true;
    }
    if (submitted_ > 0) {
      s.mean_queue_depth = queue_depth_sum_ / static_cast<double>(submitted_);
    }
    if (completed_ > 0) {
      s.queue_wait_mean_ms =
          queue_wait_sum_ms_ / static_cast<double>(completed_);
      s.service_mean_ms = service_sum_ms_ / static_cast<double>(completed_);
    }
  }
  const scene::SceneStoreStats store_stats = store_.stats();
  s.scene_cache_hits = store_stats.hits;
  s.scene_cache_misses = store_stats.misses;
  s.scene_evictions = store_stats.evictions;
  s.scene_rejected = store_stats.rejected;
  s.scene_resident_bytes = store_stats.resident_bytes;
  s.scene_peak_resident_bytes = store_stats.peak_resident_bytes;
  s.scene_resident_count = store_stats.resident_scenes;
  if (have_window) s.wall_ms = to_ms(window_end - window_begin);
  if (s.wall_ms > 0.0) {
    s.throughput_fps = static_cast<double>(s.completed) * 1000.0 / s.wall_ms;
  }
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double l : latencies) sum += l;
    std::sort(latencies.begin(), latencies.end());
    s.latency_mean_ms = sum / static_cast<double>(latencies.size());
    s.latency_max_ms = latencies.back();
    s.latency_p50_ms = percentile_sorted(latencies, 0.50);
    s.latency_p95_ms = percentile_sorted(latencies, 0.95);
    s.latency_p99_ms = percentile_sorted(latencies, 0.99);
  }
  if (s.wall_ms > 0.0 && worker_count() > 0) {
    s.worker_utilization = std::min(
        1.0,
        pool_.busy_ms() / (s.wall_ms * static_cast<double>(worker_count())));
  }
  return s;
}

void print_service_stats(std::ostream& os, const ServiceStats& stats) {
  TablePrinter table({"Metric", "Value"});
  table.add_row({"Jobs completed", std::to_string(stats.completed) + " / " +
                                       std::to_string(stats.submitted)});
  if (stats.rejected > 0) {
    table.add_row({"Jobs rejected", std::to_string(stats.rejected)});
  }
  if (stats.deadline_dropped > 0) {
    table.add_row(
        {"Deadline drops", std::to_string(stats.deadline_dropped)});
  }
  table.add_row({"Wall time", format_time_ms(stats.wall_ms)});
  table.add_row({"Throughput", format_fixed(stats.throughput_fps, 1) + " fps"});
  table.add_row({"Latency p50", format_time_ms(stats.latency_p50_ms)});
  table.add_row({"Latency p95", format_time_ms(stats.latency_p95_ms)});
  table.add_row({"Latency p99", format_time_ms(stats.latency_p99_ms)});
  table.add_row({"Latency mean/max", format_time_ms(stats.latency_mean_ms) +
                                         " / " +
                                         format_time_ms(stats.latency_max_ms)});
  table.add_row({"Queue wait mean", format_time_ms(stats.queue_wait_mean_ms)});
  table.add_row(
      {"Mean queue depth", format_fixed(stats.mean_queue_depth, 2)});
  table.add_row(
      {"Worker utilization", format_percent(stats.worker_utilization)});
  table.add_row({"Scene cache",
                 std::to_string(stats.scene_cache_hits) + " hits / " +
                     std::to_string(stats.scene_cache_misses) + " misses"});
  table.add_row({"Scene store",
                 std::to_string(stats.scene_resident_count) + " resident (" +
                     std::to_string(stats.scene_resident_bytes) + " B, peak " +
                     std::to_string(stats.scene_peak_resident_bytes) + " B), " +
                     std::to_string(stats.scene_evictions) + " evicted, " +
                     std::to_string(stats.scene_rejected) + " rejected"});
  table.print(os);
}

std::string service_stats_json(const ServiceStats& stats) {
  std::ostringstream os;
  os << "{\"submitted\":" << stats.submitted
     << ",\"completed\":" << stats.completed
     << ",\"rejected\":" << stats.rejected
     << ",\"deadline_dropped\":" << stats.deadline_dropped
     << ",\"wall_ms\":" << stats.wall_ms
     << ",\"throughput_fps\":" << stats.throughput_fps
     << ",\"latency_mean_ms\":" << stats.latency_mean_ms
     << ",\"latency_p50_ms\":" << stats.latency_p50_ms
     << ",\"latency_p95_ms\":" << stats.latency_p95_ms
     << ",\"latency_p99_ms\":" << stats.latency_p99_ms
     << ",\"latency_max_ms\":" << stats.latency_max_ms
     << ",\"queue_wait_mean_ms\":" << stats.queue_wait_mean_ms
     << ",\"service_mean_ms\":" << stats.service_mean_ms
     << ",\"mean_queue_depth\":" << stats.mean_queue_depth
     << ",\"worker_utilization\":" << stats.worker_utilization
     << ",\"scene_cache_hits\":" << stats.scene_cache_hits
     << ",\"scene_cache_misses\":" << stats.scene_cache_misses
     << ",\"scene_evictions\":" << stats.scene_evictions
     << ",\"scene_rejected\":" << stats.scene_rejected
     << ",\"scene_resident_bytes\":" << stats.scene_resident_bytes
     << ",\"scene_peak_resident_bytes\":" << stats.scene_peak_resident_bytes
     << ",\"scene_resident_count\":" << stats.scene_resident_count << "}";
  return os.str();
}

}  // namespace gaurast::runtime
