// perfbench — runs one workload of the layered benchmark and prints its
// metrics; the last line of stdout is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,
//    "metrics":{"<name>":{"value":v,"unit":"u"},...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics. See
// README.md for the workload, metric and layer map.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--corrupt-hash]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/prng.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Layer-accounting tolerance, as a share of the whole: the p50s of the
/// parts must sum to the p50 of the whole within it. Medians of parts do
/// not add exactly, so this is a consistency bound, not an identity.
constexpr double kAccountingTolerance = 0.2;
/// Frames and alternating rounds behind pipeline.raster_thread_scaling.
constexpr std::size_t kScalingFrames = 4;
constexpr int kScalingRounds = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_hash = false;
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-hash") {
      options.corrupt_hash = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(options.seconds > 0.0)) {
    throw std::runtime_error("--seconds must be > 0");
  }
  return options;
}

/// Output checks over every response of the run (set-up and window alike),
/// outside the timed window. A record failing a check stops being ok.
struct Verdict {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  double modeled_raster_ms = 0.0;
};

Verdict verify(const WorkloadSpec& spec, const std::vector<Request>& requests,
               const std::vector<Record*>& records, std::uint64_t seed,
               bool corrupt_hash, Oracle& oracle) {
  const bool hardware = spec.hardware_model;
  std::vector<Record*> sampled;
  for (Record* rec : records) {
    if (rec->ok) sampled.push_back(rec);
  }
  if (spec.verify_sample != 0 && sampled.size() > spec.verify_sample) {
    gaurast::Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t i = 0; i < spec.verify_sample; ++i) {
      const std::size_t j =
          i + rng.next_below(static_cast<std::uint32_t>(sampled.size() - i));
      std::swap(sampled[i], sampled[j]);
    }
    sampled.resize(spec.verify_sample);
  }
  if (corrupt_hash && !sampled.empty()) sampled.front()->hash ^= 1;

  // Distinct oracle renders, run across the host's cores.
  struct Task {
    bool reference = false;
    bool hardware = false;
    std::uint64_t reference_hash = 0;
    Oracle::HwFrame hw;
  };
  std::map<std::size_t, Task> tasks;
  for (const Record* rec : sampled) {
    tasks[rec->index].reference = true;
    tasks[rec->index].hardware = hardware;
  }
  for (std::size_t i = 0; i < spec.modeled_frames && i < requests.size();
       ++i) {
    tasks[i].hardware = true;
  }
  std::vector<std::pair<const std::size_t, Task>*> work;
  for (auto& entry : tasks) work.push_back(&entry);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kHostThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t w = cursor++; w < work.size(); w = cursor++) {
        const Request& req = requests[work[w]->first];
        Task& task = work[w]->second;
        if (task.reference) {
          task.reference_hash =
              oracle.reference_hash(req.scene_key, req.camera);
        }
        if (task.hardware) {
          task.hw = oracle.hardware_frame(req.scene_key, req.camera);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every ok record whose request has an oracle render is compared: the
  // reference image, and the direct hardware render (its image too, since
  // the GauRast FP32 model is bit-identical to software).
  Verdict verdict;
  for (Record* rec : records) {
    const auto it = tasks.find(rec->index);
    if (!rec->ok || it == tasks.end()) continue;
    const Task& task = it->second;
    ++verdict.checked;
    const bool reference_ok =
        !task.reference || rec->hash == task.reference_hash;
    const bool hardware_ok =
        !task.hardware ||
        (rec->hash == task.hw.hash &&
         (!hardware || rec->raster_model_ms == task.hw.raster_model_ms));
    if (!reference_ok || !hardware_ok) {
      rec->ok = false;
      ++verdict.mismatches;
    }
  }
  double modeled_sum = 0.0;
  std::size_t modeled_count = 0;
  for (std::size_t i = 0; i < spec.modeled_frames && i < requests.size();
       ++i) {
    modeled_sum += tasks.at(i).hw.raster_model_ms;
    ++modeled_count;
  }
  verdict.modeled_raster_ms =
      modeled_count == 0 ? 0.0 : modeled_sum / double(modeled_count);
  return verdict;
}

/// Client-side figures over a pass's window.
struct WindowStats {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t within_slo = 0;
  std::vector<double> send_rtt_ms;  ///< ok responses, from the send
  std::vector<double> wire_ms;      ///< send_rtt - service-reported latency
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::vector<double> send_lag_ms;
  double busy_ms = 0.0;
};

WindowStats window_stats(const WorkloadSpec& spec, const PassResult& pass) {
  WindowStats w;
  for (const Record& rec : pass.records) {
    if (!rec.in_window) continue;
    ++w.sent;
    w.send_lag_ms.push_back(rec.send_lag_ms);
    if (!rec.ok) continue;
    ++w.ok;
    if (rec.rtt_ms <= spec.slo_ms) ++w.within_slo;
    const double send_rtt = rec.rtt_ms - rec.send_lag_ms;
    w.send_rtt_ms.push_back(send_rtt);
    w.wire_ms.push_back(send_rtt - rec.latency_ms);
    w.queue_wait_ms.push_back(rec.queue_wait_ms);
    w.service_ms.push_back(rec.service_ms);
    w.busy_ms += rec.service_ms;
  }
  return w;
}

/// Percentile `p` of each measured session's OK round trips, median over
/// the sessions (the mean of the middle two for an even count): a stall
/// that slows one session moves it by one rank, not the whole run.
double session_median(const PassResult& pass, double p) {
  std::map<int, std::vector<double>> by_session;
  for (const Record& rec : pass.records) {
    if (rec.in_window && rec.ok) by_session[rec.session].push_back(rec.rtt_ms);
  }
  std::vector<double> per_session;
  for (const auto& entry : by_session) {
    per_session.push_back(percentile(entry.second, p));
  }
  if (per_session.empty()) return 0.0;
  std::sort(per_session.begin(), per_session.end());
  const std::size_t n = per_session.size();
  return (per_session[(n - 1) / 2] + per_session[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_value(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-36s %18s %s\n", m.name.c_str(),
                format_value(m.value).c_str(), m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << format_value(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

bool within(double ratio, double tolerance) {
  return std::fabs(ratio - 1.0) <= tolerance;
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

int run(const Options& options) {
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    throw std::runtime_error("unknown workload '" + options.workload +
                             "' (known:" + names + ")");
  }

  // Paper headline averages, pinned on every run.
  const PaperAverages paper = compute_paper_averages();
  const PaperAverages pinned = pinned_paper_averages();
  const bool paper_ok = paper.raster_speedup == pinned.raster_speedup &&
                        paper.pipelined_fps == pinned.pipelined_fps &&
                        paper.end_to_end_speedup == pinned.end_to_end_speedup;
  std::printf("paper averages: raster %.17gx, %.17g FPS, end-to-end %.17gx "
              "(%s)\n",
              paper.raster_speedup, paper.pipelined_fps,
              paper.end_to_end_speedup,
              paper_ok ? "match pinned" : "DIFFER FROM PINNED");

  const std::vector<Request> requests =
      make_requests(*spec, options.seed, options.seconds);

  Trace trace;
  PassResult plain = run_pass(*spec, requests, options.seconds, nullptr);
  PassResult traced;
  if (options.trace) {
    traced = run_pass(*spec, requests, options.seconds, &trace);
  }

  std::vector<Record*> records;
  for (PassResult* pass : {&plain, &traced}) {
    for (Record& rec : pass->records) records.push_back(&rec);
  }
  std::size_t failed_requests = 0;
  for (const Record* rec : records) failed_requests += rec->ok ? 0 : 1;
  Oracle oracle;
  const Verdict verdict = verify(*spec, requests, records, options.seed,
                                 options.corrupt_hash, oracle);
  std::printf("checked %zu of %zu responses against the oracle: %zu "
              "mismatched, %zu failed in flight\n",
              verdict.checked, records.size(), verdict.mismatches,
              failed_requests);

  std::size_t failed = failed_requests + verdict.mismatches;
  bool correct = paper_ok && failed == 0;
  if (!paper_ok) ++failed;
  std::vector<Metric> metrics;

  if (!options.trace) {
    const WindowStats plain_w = window_stats(*spec, plain);
    metrics = {
        {"setup_s", percentile(plain.setup_s, 50.0), "s"},
        {"throughput_fps", double(plain_w.ok) / plain.window_s, "1/s"},
        {"latency_p50_ms", session_median(plain, 50.0), "ms"},
        {"latency_tail_ms", session_median(plain, spec->tail_percentile),
         "ms"},
        {"slo_attainment",
         ratio(double(plain_w.within_slo), double(plain_w.sent)), "share"},
        {"ok_share", ratio(double(plain_w.ok), double(plain_w.sent)), "share"},
        {"peak_rss_mb", plain.peak_rss_mb, "MiB"},
        {"modeled_raster_ms", verdict.modeled_raster_ms, "ms"},
    };
    print_result(correct, records.size(), failed, metrics);
    return 0;
  }

  // Traced run: per-layer metrics from the traced pass.
  const WindowStats w = window_stats(*spec, traced);
  const bool hardware = spec->hardware_model;
  const bool wire = spec->serving != Serving::kInProcess;
  const double route_p50 = percentile(traced.route_overhead_ms, 50.0);
  const double net_p50 = wire ? percentile(w.wire_ms, 50.0) - route_p50 : 0.0;
  const double queue_p50 = percentile(w.queue_wait_ms, 50.0);
  const double service_p50 = percentile(w.service_ms, 50.0);
  const auto span_p50 = [&](const char* span) {
    return percentile(trace.frames.samples(span), 50.0);
  };
  const double engine_p50 = span_p50("engine.render");
  const double pre_p50 = span_p50("pipeline.preprocess");
  const double sort_p50 = span_p50("pipeline.sort");
  const double raster_p50 = span_p50("pipeline.raster");
  const double hw_raster_p50 = span_p50("core.hw_raster");
  const std::vector<double> pairs = trace.frames.samples("pipeline.pairs");
  const std::vector<double> hw_ms = trace.frames.samples("core.hw_raster");
  const double hw_seconds =
      std::accumulate(hw_ms.begin(), hw_ms.end(), 0.0) / 1000.0;
  const double pairs_total = std::accumulate(pairs.begin(), pairs.end(), 0.0);
  const std::uint64_t lookups = traced.scene_hits + traced.scene_misses;

  std::vector<std::pair<const gaurast::scene::GaussianScene*,
                        gaurast::scene::Camera>>
      scaling_frames;
  std::vector<std::shared_ptr<const gaurast::scene::GaussianScene>> scenes;
  for (std::size_t i = 0; i < kScalingFrames && i < requests.size(); ++i) {
    scenes.push_back(oracle.scene(requests[i].scene_key));
    scaling_frames.emplace_back(scenes.back().get(), requests[i].camera);
  }
  const double scaling =
      raster_thread_scaling(scaling_frames, kHostThreads, kScalingRounds);

  const double client_accounting =
      ratio(net_p50 + route_p50 + queue_p50 + service_p50,
            percentile(w.send_rtt_ms, 50.0));
  const double engine_accounting =
      ratio(pre_p50 + sort_p50 + (hardware ? hw_raster_p50 : raster_p50),
            engine_p50);
  const double service_accounting = ratio(engine_p50, service_p50);
  const bool accounted = within(client_accounting, kAccountingTolerance) &&
                         within(engine_accounting, kAccountingTolerance) &&
                         within(service_accounting, kAccountingTolerance);
  std::printf("layer accounting (p50 sums over the whole, tolerance %.2f): "
              "client %.4f, engine %.4f, engine/service %.4f (%s)\n",
              kAccountingTolerance, client_accounting, engine_accounting,
              service_accounting, accounted ? "holds" : "FAILS");
  correct = correct && accounted;

  metrics = {
      {"cluster.route_overhead_p50_ms", route_p50, "ms"},
      {"cluster.retries", double(traced.retries), "count"},
      {"cluster.shed", double(traced.shed), "count"},
      {"net.overhead_p50_ms", net_p50, "ms"},
      {"runtime.queue_wait_p50_ms", queue_p50, "ms"},
      {"runtime.queue_wait_tail_ms",
       percentile(w.queue_wait_ms, spec->tail_percentile), "ms"},
      {"runtime.service_p50_ms", service_p50, "ms"},
      {"runtime.worker_utilization",
       ratio(w.busy_ms, traced.workers * traced.window_s * 1000.0), "share"},
      {"scene.hit_rate", ratio(double(traced.scene_hits), double(lookups)),
       "share"},
      {"scene.evictions", double(traced.scene_evictions), "count"},
      {"scene.peak_resident_mb", traced.scene_peak_resident_mb, "MiB"},
      {"scene.load_p50_ms",
       percentile(trace.loads.samples("scene.load"), 50.0), "ms"},
      {"engine.render_p50_ms", engine_p50, "ms"},
      {"pipeline.preprocess_p50_ms", pre_p50, "ms"},
      {"pipeline.sort_p50_ms", sort_p50, "ms"},
      {"pipeline.raster_p50_ms", raster_p50, "ms"},
      {"pipeline.pairs_per_frame", mean(pairs), "count"},
      {"pipeline.raster_thread_scaling", scaling, "ratio"},
      {"core.hw_raster_p50_ms", hw_raster_p50, "ms"},
      {"core.pairs_per_host_s", ratio(pairs_total, hw_seconds), "1/s"},
      {"loadgen.send_lag_p99_ms",
       spec->rate_hz > 0.0 ? percentile(w.send_lag_ms, 99.0) : 0.0,
       "ms"},
      {"trace.overhead",
       ratio(session_median(traced, 50.0), session_median(plain, 50.0)),
       "ratio"},
  };
  print_result(correct, records.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
