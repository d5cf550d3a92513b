// gaurast_cli — the unified command-line driver.
//
//   gaurast_cli render   --ply scene.ply | --synthetic N   [--width W]
//                        [--height H] [--out img.ppm] [--config rast.cfg]
//                        [--threads T] [--kernel reference|fast] [--seed S]
//                        [--backend NAME]
//   gaurast_cli simulate --scene bicycle [--variant original|mini]
//                        [--config rast.cfg]
//   gaurast_cli replay   --trace loads.gtr [--config rast.cfg]
//   gaurast_cli serve    [--jobs N] [--workers W] [--queue Q]
//                        [--arrival closed|poisson] [--rate HZ]
//                        [--backend NAME] [--config rast.cfg] [--threads T]
//                        [--kernel reference|fast] [--seed S]
//                        [--listen PORT] [--json out.json]
//                        [--deadline-ms MS] [--fault-plan PLAN]
//   gaurast_cli request  --port P [--host H] [--synthetic N] [--seed S]
//                        [--width W] [--height H] [--out img.ppm]
//                        [--backend NAME] [--kernel reference|fast]
//                        [--stats] [--deadline-ms MS]
//   gaurast_cli route    [--listen PORT] --shard H:P [--shard H:P ...]
//   gaurast_cli route    [--listen PORT] --spawn N [--workers W] [--queue Q]
//                        [--backend NAME] [--kernel reference|fast]
//                        [--threads T] [--json out.json]
//                        [--deadline-ms MS] [--fault-plan PLAN]
//                        [--readmit-after-ms MS]
//   gaurast_cli backends [--json out.json|-]
//   gaurast_cli report
//
// `render` runs a real scene end-to-end through any registered
// engine::RenderBackend. `simulate` evaluates a full-scale NeRF-360
// workload profile. `replay` re-times a captured tile trace. `serve` drives
// generated multi-user traffic through the concurrent RenderService and
// reports throughput/latency — or, with --listen, serves real clients over
// the gaurast wire protocol (net::Server) until SIGINT/SIGTERM. `request`
// is the matching wire client: it renders one frame on a running server (or
// fetches its stats snapshot with --stats). `route` fronts a sharded fleet:
// it speaks the same wire protocol as `serve --listen` but forwards each
// request to the shard that owns its scene (rendezvous hashing over the
// alive shards of cluster::HostDb), with health probing, failover, and
// merged gaurast-fleet-stats/v2 reporting; --spawn forks and supervises N
// local workers instead of joining pre-started --shard ones. `backends`
// lists the engine registry — every --backend value, its capabilities and
// operating point. `report` prints every paper table and figure with the
// paper's published value beside each modeled one (tools/report.cpp).
//
// Backend names, help text and flag validation all come from the engine
// registry (engine/registry.hpp); registering a new operating point there
// makes it usable everywhere here with no CLI edits.

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "cluster/spawner.hpp"
#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/table.hpp"
#include "core/config_io.hpp"
#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "engine/registry.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "pipeline/rasterize.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"
#include "scene/generator.hpp"
#include "scene/ply_io.hpp"
#include "scene/store.hpp"

#include "report.hpp"

namespace {

using namespace gaurast;

// Returns the value of a path-valued flag, erroring with a user-facing
// message (not a GAURAST_CHECK leak from the loader) if it names a file
// that cannot be opened.
std::string readable_file_flag(const CliParser& cli, const std::string& flag) {
  const std::string path = cli.get_string(flag);
  if (!path.empty()) {
    // ifstream alone opens directories fine on Linux, so exclude them too.
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec) ||
        !std::ifstream(path).good()) {
      throw CliParseError("cannot open --" + flag + " file '" + path + "'");
    }
  }
  return path;
}

core::RasterizerConfig config_from_flag(const CliParser& cli) {
  const std::string path = readable_file_flag(cli, "config");
  return path.empty() ? core::RasterizerConfig::scaled300()
                      : core::load_config(path);
}

bool flag_was_set(const CliParser& cli, const std::string& name) {
  const std::vector<std::string> set = cli.set_flags();
  return std::find(set.begin(), set.end(), name) != set.end();
}

// A non-negative millisecond budget flag (0 = disabled).
int deadline_flag(const CliParser& cli) {
  const int deadline_ms = cli.get_int("deadline-ms");
  if (deadline_ms < 0) {
    throw CliParseError("--deadline-ms must be >= 0 (0 = no deadline)");
  }
  return deadline_ms;
}

// Arms --fault-plan (chaos/testing traffic only; see common/fault.hpp for
// the plan syntax). Parse errors surface as flag diagnostics.
void arm_fault_plan_flag(const CliParser& cli) {
  const std::string spec = cli.get_string("fault-plan");
  if (spec.empty()) return;
  try {
    fault::arm(fault::parse_plan(spec));
  } catch (const Error& e) {
    throw CliParseError(std::string("--fault-plan: ") + e.what());
  }
  std::cout << "Fault plan armed: " << spec << '\n';
}

// The one capability-driven flag check shared by `render` and `serve`: a
// flag whose value cannot take effect on the chosen backend is a user
// error, not a silent no-op. Diagnostics name the offending backend and the
// registered backends that do accept the flag.
void reject_incapable_flags(const CliParser& cli,
                            const engine::RenderBackend& backend) {
  const engine::Capabilities caps = backend.capabilities();
  const auto incapable = [&](const std::string& flag, const char* why,
                             bool(engine::Capabilities::*bit)) {
    if (!flag_was_set(cli, flag) || caps.*bit) return;
    const std::vector<std::string> accepting =
        engine::registry().names_where(
            [bit](const engine::Capabilities& c) { return c.*bit; });
    throw CliParseError("--" + flag + " does not apply to --backend " +
                        backend.name() + " (" + why +
                        "); backends that accept it: " +
                        engine::join_names(accepting));
  };
  incapable("threads", "its Step 3 does not fan tiles across host threads",
            &engine::Capabilities::supports_raster_threads);
  incapable("kernel", "its Step 3 does not run the software raster kernels",
            &engine::Capabilities::supports_kernel_select);
  incapable("config", "it derives its own rasterizer configuration",
            &engine::Capabilities::accepts_external_rasterizer_config);
}

// Resolves --backend against the engine registry (at its default operating
// point; call sites rebuild with options only when --config was given, so
// the common path constructs the backend exactly once). Unknown names get
// the registry's enumerating diagnostic re-raised as a flag error.
std::unique_ptr<engine::RenderBackend> backend_from_flag(const CliParser& cli) {
  try {
    return engine::create(cli.get_string("backend"));
  } catch (const Error& e) {
    throw CliParseError(std::string("--backend: ") + e.what());
  }
}

// Registered backend names/descriptions are arbitrary caller strings, so
// they must be escaped before landing in a JSON report.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Creation-time backend options from the flags (currently just --config).
engine::BackendOptions backend_options_from_flags(const CliParser& cli) {
  engine::BackendOptions options;
  const std::string path = readable_file_flag(cli, "config");
  if (!path.empty()) options.rasterizer = core::load_config(path);
  return options;
}

/// Probes that an output path is writable (append mode, so an existing file
/// is never truncated) and, if the probe had to create the file, removes it
/// again on any error path so a failed run leaves no stray empty artifact.
class OutputFileProbe {
 public:
  OutputFileProbe(std::string path, const std::string& flag)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    std::error_code ec;
    created_ = !std::filesystem::exists(path_, ec);
    if (!std::ofstream(path_, std::ios::app).good()) {
      throw CliParseError("cannot write --" + flag + " file '" + path_ + "'");
    }
  }

  ~OutputFileProbe() {
    if (armed_ && created_) {
      std::error_code ec;
      std::filesystem::remove(path_, ec);
    }
  }

  /// Call once the real content has been written.
  void disarm() { armed_ = false; }

 private:
  std::string path_;
  bool created_ = false;
  bool armed_ = true;
};

// Re-raises runtime enum-parse errors as CLI errors so a bad --backend or
// --arrival value gets the standard one-line flag diagnostic.
template <typename Fn>
auto flag_value(const std::string& flag, Fn&& parse) {
  try {
    return parse();
  } catch (const Error& e) {
    throw CliParseError(std::string("--") + flag + ": " + e.what());
  }
}

int cmd_render(const CliParser& cli) {
  std::unique_ptr<engine::RenderBackend> backend = backend_from_flag(cli);
  engine::FrameOptions frame_options;
  // Value errors (--threads 0, --kernel bogus) before capability errors
  // (--threads on a backend that cannot use it): the former are malformed
  // regardless of backend choice.
  frame_options.pipeline.num_threads = cli.get_positive_int("threads");
  frame_options.pipeline.kernel = flag_value("kernel", [&] {
    return pipeline::raster_kernel_from_string(cli.get_string("kernel"));
  });
  reject_incapable_flags(cli, *backend);
  // Validate every remaining flag (and input-path readability) before the
  // --out probe so a rejected run cannot leave a stray empty output file.
  const int width = cli.get_positive_int("width");
  const int height = cli.get_positive_int("height");
  // Scene selection: --scene takes a canonical scene key and subsumes the
  // older spellings; mixing them would leave one silently ignored.
  const bool scene_key_set = flag_was_set(cli, "scene");
  if (scene_key_set &&
      (flag_was_set(cli, "ply") || flag_was_set(cli, "synthetic") ||
       flag_was_set(cli, "seed"))) {
    throw CliParseError(
        "--scene names the scene by canonical key; it does not combine with "
        "--ply/--synthetic/--seed");
  }
  const std::string scene_key =
      scene_key_set ? cli.get_string("scene") : std::string();
  if (scene_key_set) {
    flag_value("scene", [&] { return scene::parse_scene_key(scene_key); });
  }
  const std::string ply = readable_file_flag(cli, "ply");
  scene::GeneratorParams generator_params;
  generator_params.gaussian_count =
      static_cast<std::uint64_t>(cli.get_positive_int("synthetic"));
  generator_params.seed = cli.get_uint64("seed");
  const engine::BackendOptions backend_options = backend_options_from_flags(cli);
  if (backend_options.rasterizer) {
    // Rebuild at the external operating point (capabilities allowed it).
    backend = engine::create(backend->name(), backend_options);
  }

  const std::string out = cli.get_string("out");
  OutputFileProbe out_probe(out, "out");
  scene::GaussianScene gscene =
      scene_key_set
          ? scene::PlyDirectorySource("").resolve(scene_key)
          : ply.empty() ? scene::generate_scene(generator_params)
                        : scene::load_ply(ply);
  const scene::Camera camera = scene::default_camera({}, width, height);

  const auto start = std::chrono::steady_clock::now();
  const engine::FrameOutput result =
      backend->render(gscene, camera, frame_options);
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();

  TablePrinter table({"Metric", "Value"});
  table.add_row({"Backend", backend->name()});
  table.add_row({"Gaussians", std::to_string(gscene.size())});
  table.add_row({"Pairs evaluated",
                 std::to_string(result.frame.raster_stats.pairs_evaluated)});
  table.add_row({"Pairs per pixel",
                 format_fixed(result.frame.pairs_per_pixel(), 2)});
  if (result.hw) {
    table.add_row({"GauRast raster", format_time_ms(result.hw->raster_model_ms)});
    table.add_row({"Stages 1-2 (host)",
                   format_time_ms(result.hw->stage12_model_ms)});
    table.add_row({"Pipelined FPS", format_fixed(result.hw->pipelined_fps(), 1)});
    table.add_row({"Utilization", format_percent(result.hw->utilization)});
    table.add_row({"Step-3 energy @SoC",
                   format_energy_mj(result.hw->energy_soc_mj)});
  } else {
    // Pure software path; Step 3 fanned tiles across --threads with
    // bit-identical output for any thread count and kernel.
    table.add_row({"Raster kernel",
                   pipeline::to_string(frame_options.pipeline.kernel)});
    table.add_row({"Raster threads",
                   std::to_string(frame_options.pipeline.num_threads)});
    table.add_row({"Frame wall time", format_time_ms(wall_ms)});
  }
  table.print(std::cout);
  if (!out.empty()) {
    result.frame.image.save_ppm(out);
    out_probe.disarm();
    std::cout << "Wrote " << out << '\n';
  }
  return 0;
}

// One row per registered backend, straight from the registry — no
// hard-coded names anywhere in this binary.
int cmd_backends(const CliParser& cli) {
  const std::string json_path = cli.get_string("json");
  const bool json_to_stdout = json_path == "-";
  OutputFileProbe json_probe(json_to_stdout ? "" : json_path, "json");
  const std::vector<engine::BackendInfo> backends = engine::list();

  std::ostringstream json;
  json << "{\"backends\":[";
  TablePrinter table(
      {"Name", "Type", "Precision", "PEs", "Accepts", "Description"});
  bool first = true;
  for (const engine::BackendInfo& info : backends) {
    const engine::Capabilities& caps = info.capabilities;
    std::vector<std::string> accepts;
    if (caps.supports_raster_threads) accepts.push_back("--threads");
    if (caps.supports_kernel_select) accepts.push_back("--kernel");
    if (caps.accepts_external_rasterizer_config) accepts.push_back("--config");
    table.add_row({info.name,
                   caps.is_hardware_model ? "hardware model" : "software",
                   engine::precision_name(caps.default_precision),
                   info.rasterizer
                       ? std::to_string(info.rasterizer->total_pes())
                       : "-",
                   accepts.empty() ? "-" : engine::join_names(accepts),
                   info.description});
    json << (first ? "" : ",") << "{\"name\":\"" << json_escape(info.name)
         << "\",\"description\":\"" << json_escape(info.description)
         << "\",\"is_hardware_model\":"
         << (caps.is_hardware_model ? "true" : "false")
         << ",\"supports_raster_threads\":"
         << (caps.supports_raster_threads ? "true" : "false")
         << ",\"supports_kernel_select\":"
         << (caps.supports_kernel_select ? "true" : "false")
         << ",\"accepts_external_rasterizer_config\":"
         << (caps.accepts_external_rasterizer_config ? "true" : "false")
         << ",\"default_precision\":\""
         << engine::precision_name(caps.default_precision) << "\"";
    if (info.rasterizer) {
      json << ",\"total_pes\":" << info.rasterizer->total_pes();
    }
    json << "}";
    first = false;
  }
  json << "]}";

  if (json_to_stdout) {
    std::cout << json.str() << '\n';
    return 0;
  }
  table.print(std::cout);
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << json.str() << '\n';
    json_probe.disarm();
    std::cout << "Wrote " << json_path << '\n';
  }
  return 0;
}

int cmd_simulate(const CliParser& cli) {
  const scene::PipelineVariant variant =
      cli.get_string("variant") == "mini"
          ? scene::PipelineVariant::kMiniSplatting
          : scene::PipelineVariant::kOriginal;
  const scene::SceneProfile profile =
      scene::profile_by_name(cli.get_string("scene"), variant);
  const core::RasterizerConfig cfg = config_from_flag(cli);
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const core::ProfileSimulator sim(cfg);
  const core::ProfileSimResult r = sim.simulate(profile);
  const gpu::StageTimes times = cuda.frame_times(profile);
  const core::EndToEndResult e2e = core::schedule_frame(times, r.runtime_ms());

  print_banner(std::cout, "Scene '" + profile.name + "' (" +
                              (variant == scene::PipelineVariant::kOriginal
                                   ? "original 3DGS"
                                   : "Mini-Splatting") +
                              ") on " + std::to_string(cfg.total_pes()) +
                              " PEs");
  TablePrinter table({"Metric", "CUDA baseline", "With GauRast"});
  table.add_row({"Raster time", format_time_ms(times.raster_ms),
                 format_time_ms(r.runtime_ms())});
  table.add_row({"Frame time", format_time_ms(e2e.cuda_only_frame_ms()),
                 format_time_ms(e2e.pipelined_frame_ms())});
  table.add_row({"FPS", format_fixed(e2e.cuda_only_fps(), 1),
                 format_fixed(e2e.pipelined_fps(), 1)});
  table.add_row({"Raster energy", format_energy_mj(cuda.raster_energy_mj(profile)),
                 format_energy_mj(r.energy_soc.total_mj())});
  table.print(std::cout);
  std::cout << "Raster speedup " << format_ratio(e2e.raster_speedup())
            << ", end-to-end " << format_ratio(e2e.end_to_end_speedup())
            << ", utilization " << format_percent(r.utilization()) << '\n';
  return 0;
}

int cmd_replay(const CliParser& cli) {
  const std::string path = readable_file_flag(cli, "trace");
  if (path.empty()) throw CliParseError("replay requires --trace <file.gtr>");
  const auto tiles = core::load_trace(path);
  const core::TraceSummary summary = core::summarize_trace(tiles);
  const core::RasterizerConfig cfg = config_from_flag(cli);
  const core::DesignTimelineResult timing = core::replay_trace(tiles, cfg);
  TablePrinter table({"Metric", "Value"});
  table.add_row({"Tiles", std::to_string(summary.tiles)});
  table.add_row({"Pairs", std::to_string(summary.total_pairs)});
  table.add_row({"Cycles", std::to_string(timing.makespan_cycles)});
  table.add_row({"Runtime", format_time_ms(timing.runtime_ms)});
  table.add_row({"Utilization", format_percent(timing.utilization)});
  table.print(std::cout);
  return 0;
}

// --listen flips `serve` from the synthetic load generator to a real TCP
// front-end: a net::Server bridges wire requests onto the same
// RenderService until SIGINT/SIGTERM, then shuts down gracefully (drains
// accepted jobs, flushes every connection).
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve_listen(const CliParser& cli,
                     runtime::ServiceConfig service_config) {
  for (const char* flag : {"jobs", "arrival", "rate"}) {
    if (flag_was_set(cli, flag)) {
      throw CliParseError(std::string("--") + flag +
                          " drives the synthetic workload generator and does "
                          "not apply with --listen (requests come from the "
                          "wire)");
    }
  }
  const int listen_port = cli.get_int("listen");
  if (listen_port < 0 || listen_port > 65535) {
    throw CliParseError("--listen must be a TCP port in [0, 65535] "
                        "(0 = ephemeral)");
  }
  const std::string json_path = cli.get_string("json");
  OutputFileProbe json_probe(json_path, "json");

  runtime::RenderService service(service_config);
  net::ServerConfig server_config;
  server_config.port = listen_port;
  server_config.default_deadline_ms = deadline_flag(cli);
  net::Server server(service, server_config);
  server.start();
  std::cout << "Listening on " << server_config.host << ":" << server.port()
            << " (backend " << service_config.backend << ", "
            << service.worker_count() << " workers)" << std::endl;

  g_stop_requested = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "Signal received, shutting down" << std::endl;
  server.stop();

  const runtime::ServiceStats stats = service.stats();
  runtime::print_service_stats(std::cout, stats);
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << "{\"schema\":\"" << net::kServeStatsSchema
       << "\",\"command\":\"serve\",\"workers\":" << service.worker_count()
       << ",\"listen\":" << server.port() << ",\"backend\":\""
       << service_config.backend
       << "\",\"scene_budget_bytes\":" << service_config.scene_budget_bytes
       << ",\"max_scene_bytes\":" << service_config.max_scene_bytes
       << ",\"stats\":" << runtime::service_stats_json(stats) << "}\n";
    json_probe.disarm();
    std::cout << "Wrote " << json_path << '\n';
  }
  return 0;
}

int cmd_request(const CliParser& cli) {
  const std::string host = cli.get_string("host");
  const int port = cli.get_positive_int("port");
  net::Client client(host, port);

  if (cli.get_bool("stats")) {
    std::cout << client.stats().json << '\n';
    return 0;
  }
  const int deadline_ms = deadline_flag(cli);

  const int width = cli.get_positive_int("width");
  const int height = cli.get_positive_int("height");
  const std::string out = cli.get_string("out");
  OutputFileProbe out_probe(out, "out");

  net::RenderRequest wire = net::default_render_request(
      static_cast<std::uint64_t>(cli.get_positive_int("synthetic")),
      cli.get_uint64("seed"), width, height);
  // --scene replaces the synthetic key --synthetic/--seed spell; mixing the
  // spellings is a user error.
  if (flag_was_set(cli, "scene")) {
    if (flag_was_set(cli, "synthetic") || flag_was_set(cli, "seed")) {
      throw CliParseError(
          "--scene names the scene by canonical key; it does not combine "
          "with --synthetic/--seed");
    }
    wire.scene = cli.get_string("scene");
  }
  wire.request_id = 1;
  // Empty backend/kernel mean "whatever the server serves"; only express a
  // preference when the user actually set the flag (a mismatch is then an
  // explicit server-side refusal, not a silent substitution).
  if (flag_was_set(cli, "backend")) wire.backend = cli.get_string("backend");
  if (flag_was_set(cli, "kernel")) wire.kernel = cli.get_string("kernel");
  wire.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
  if (!out.empty()) wire.flags |= net::kWantImage;

  const net::RenderResponse resp = client.render(wire);
  if (resp.status != net::RenderStatus::kOk) {
    std::cerr << "request refused (" << net::to_string(resp.status) << ")"
              << (resp.message.empty() ? "" : ": " + resp.message) << '\n';
    return 1;
  }

  TablePrinter table({"Metric", "Value"});
  table.add_row({"Status", net::to_string(resp.status)});
  table.add_row({"Job id", std::to_string(resp.job_id)});
  table.add_row({"Latency", format_time_ms(resp.latency_ms)});
  table.add_row({"Queue wait", format_time_ms(resp.queue_wait_ms)});
  table.add_row({"Service", format_time_ms(resp.service_ms)});
  table.print(std::cout);

  if (!out.empty()) {
    if (!resp.has_image) {
      throw Error("server response carried no image despite kWantImage");
    }
    Image image(resp.image_width, resp.image_height);
    std::vector<Vec3f>& pixels = image.pixels();
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      pixels[i] = Vec3f{resp.pixels[3 * i], resp.pixels[3 * i + 1],
                        resp.pixels[3 * i + 2]};
    }
    image.save_ppm(out);
    out_probe.disarm();
    std::cout << "Wrote " << out << '\n';
  }
  return 0;
}

// The running binary's own path, for `route --spawn` to fork workers from.
// /proc/self/exe is authoritative on Linux and works even when argv[0] is a
// bare name resolved through PATH.
std::string self_exe_path() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return "/proc/self/exe";
}

int cmd_route(const CliParser& cli) {
  const int listen_port = cli.get_int("listen");
  if (listen_port < 0 || listen_port > 65535) {
    throw CliParseError("--listen must be a TCP port in [0, 65535] "
                        "(0 = ephemeral)");
  }
  const int spawn_count = cli.get_int("spawn");
  if (spawn_count < 0) {
    throw CliParseError("--spawn must be >= 1");
  }
  const std::vector<std::string> shard_specs = cli.get_strings("shard");
  if ((spawn_count > 0) == !shard_specs.empty()) {
    throw CliParseError(
        "route fronts exactly one fleet: pass pre-started shards with "
        "--shard host:port (repeatable) or fork local workers with "
        "--spawn N, not both and not neither");
  }
  for (const char* flag : {"workers", "queue", "backend", "kernel", "threads",
                           "scene-budget-mb", "max-scene-mb", "scene-dir"}) {
    if (spawn_count == 0 && flag_was_set(cli, flag)) {
      throw CliParseError(std::string("--") + flag +
                          " configures spawned workers and requires --spawn "
                          "(pre-started --shard servers bring their own "
                          "configuration)");
    }
  }
  const int readmit_after_ms = cli.get_int("readmit-after-ms");
  if (readmit_after_ms < 0) {
    throw CliParseError(
        "--readmit-after-ms must be >= 0 (0 = re-admit on the first "
        "success)");
  }
  const std::string json_path = cli.get_string("json");
  OutputFileProbe json_probe(json_path, "json");
  arm_fault_plan_flag(cli);

  std::unique_ptr<cluster::Spawner> spawner;
  std::vector<cluster::ShardId> shards;
  if (spawn_count > 0) {
    cluster::SpawnerConfig spawner_config;
    spawner_config.exe = self_exe_path();
    // Worker configuration passes through verbatim; a bad value surfaces as
    // the worker's own CLI diagnostic on the supervisor's stdout.
    for (const char* flag : {"workers", "queue", "backend", "kernel", "threads",
                             "scene-budget-mb", "max-scene-mb", "scene-dir"}) {
      if (flag_was_set(cli, flag)) {
        spawner_config.serve_args.push_back(std::string("--") + flag);
        spawner_config.serve_args.push_back(cli.get_string(flag));
      }
    }
    spawner = std::make_unique<cluster::Spawner>(std::move(spawner_config));
    shards = spawner->spawn(spawn_count);
  } else {
    shards.reserve(shard_specs.size());
    for (const std::string& spec : shard_specs) {
      shards.push_back(flag_value("shard", [&] {
        return cluster::ShardId::parse(spec);
      }));
    }
  }

  cluster::HostDbConfig db_config;
  db_config.readmit_after_ms = readmit_after_ms;
  cluster::HostDb db(shards, db_config);
  cluster::RouterConfig router_config;
  router_config.port = listen_port;
  router_config.default_deadline_ms = deadline_flag(cli);
  cluster::Router router(db, router_config);
  router.start();
  std::cout << "Routing across " << db.size() << " shard"
            << (db.size() == 1 ? "" : "s") << " (";
  for (std::size_t i = 0; i < db.size(); ++i) {
    std::cout << (i ? ", " : "") << db.shard(i).label();
  }
  std::cout << ")" << std::endl;
  // Same announcement line as `serve --listen`, so anything that parses one
  // can front either.
  std::cout << "Listening on " << router_config.host << ":" << router.port()
            << std::endl;

  g_stop_requested = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (spawner) spawner->poll();
  }
  std::cout << "Signal received, shutting down" << std::endl;
  // Final fleet report while the shards are still up; stopping the router
  // first keeps new requests out of the snapshot.
  router.stop();
  const std::string fleet_json = router.fleet_stats_json();
  if (spawner) spawner->stop();

  std::cout << fleet_json << '\n';
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << fleet_json << '\n';
    json_probe.disarm();
    std::cout << "Wrote " << json_path << '\n';
  }
  return 0;
}

int cmd_serve(const CliParser& cli) {
  arm_fault_plan_flag(cli);
  runtime::ServiceConfig service_config;
  const int workers_flag = cli.get_int("workers");
  if (workers_flag < 0) {
    throw CliParseError("--workers must be >= 0 (0 = one per hardware core)");
  }
  service_config.workers =
      workers_flag > 0
          ? workers_flag
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  service_config.queue_capacity =
      static_cast<std::size_t>(cli.get_positive_int("queue"));
  std::unique_ptr<engine::RenderBackend> backend = backend_from_flag(cli);
  service_config.renderer.num_threads = cli.get_positive_int("threads");
  service_config.renderer.kernel = flag_value("kernel", [&] {
    return pipeline::raster_kernel_from_string(cli.get_string("kernel"));
  });
  reject_incapable_flags(cli, *backend);
  service_config.backend = backend->name();
  service_config.backend_options = backend_options_from_flags(cli);
  // Hand the already-built backend to the service unless --config asks for
  // a different operating point — either way the backend is constructed
  // exactly once per invocation.
  if (!service_config.backend_options.rasterizer) {
    service_config.backend_instance = std::move(backend);
  }

  // Scene-store sizing: budgets arrive in MiB, the store accounts bytes.
  const int budget_mb = cli.get_int("scene-budget-mb");
  const int max_scene_mb = cli.get_int("max-scene-mb");
  if (budget_mb < 0 || max_scene_mb < 0) {
    throw CliParseError(
        "--scene-budget-mb / --max-scene-mb must be >= 0 (0 = unlimited)");
  }
  service_config.scene_budget_bytes =
      static_cast<std::size_t>(budget_mb) * 1024u * 1024u;
  service_config.max_scene_bytes =
      static_cast<std::size_t>(max_scene_mb) * 1024u * 1024u;
  const std::string scene_dir = cli.get_string("scene-dir");
  if (!scene_dir.empty()) {
    service_config.scene_source =
        std::make_shared<const scene::PlyDirectorySource>(scene_dir);
  }

  if (flag_was_set(cli, "listen")) return cmd_serve_listen(cli, service_config);

  runtime::WorkloadConfig workload;
  workload.seed = cli.get_uint64("seed");
  workload.deadline_ms = deadline_flag(cli);
  workload.jobs = cli.get_positive_int("jobs");
  workload.width = cli.get_positive_int("width");
  workload.height = cli.get_positive_int("height");
  workload.arrival = flag_value("arrival", [&] {
    return runtime::arrival_from_string(cli.get_string("arrival"));
  });
  workload.rate_hz = cli.get_double("rate");
  if (workload.arrival == runtime::ArrivalModel::kPoisson &&
      workload.rate_hz <= 0.0) {
    throw CliParseError("--rate must be > 0 for --arrival poisson");
  }
  // Probe --json writability up front; the probe removes any file it had
  // to create if the run fails, so error paths leave no stray empty report.
  const std::string json_path = cli.get_string("json");
  OutputFileProbe json_probe(json_path, "json");

  runtime::RenderService service(service_config);
  print_banner(std::cout,
               "Serving " + std::to_string(workload.jobs) + " jobs on " +
                   std::to_string(service_config.workers) +
                   " workers (backend " + service_config.backend +
                   ", arrival " + to_string(workload.arrival) + ")");
  const runtime::WorkloadRunResult run = run_workload(service, workload);
  runtime::print_service_stats(std::cout, run.stats);

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << "{\"schema\":\"" << net::kServeStatsSchema
       << "\",\"command\":\"serve\",\"workers\":" << service.worker_count()
       << ",\"queue\":" << service_config.queue_capacity << ",\"backend\":\""
       << service_config.backend << "\",\"arrival\":\""
       << to_string(workload.arrival) << "\",\"jobs\":" << workload.jobs
       << ",\"seed\":" << workload.seed
       << ",\"threads\":" << service_config.renderer.num_threads
       << ",\"scene_budget_bytes\":" << service_config.scene_budget_bytes
       << ",\"max_scene_bytes\":" << service_config.max_scene_bytes
       << ",\"stats\":" << runtime::service_stats_json(run.stats) << "}\n";
    json_probe.disarm();
    std::cout << "Wrote " << json_path << '\n';
  }
  return 0;
}

constexpr std::array<std::string_view, 8> kCommands = {
    "render", "simulate", "replay", "serve",
    "request", "route",    "backends", "report"};

/// Flags each command actually consumes. Flags are declared once globally
/// (so every help screen is complete), but a flag set for a command that
/// ignores it is a user error, not a silent no-op.
const std::vector<std::string>& command_flags(const std::string& command) {
  static const std::map<std::string, std::vector<std::string>> kByCommand = {
      {"render",
       {"ply", "synthetic", "scene", "width", "height", "out", "config",
        "threads", "kernel", "seed", "backend"}},
      {"simulate", {"scene", "variant", "config"}},
      {"replay", {"trace", "config"}},
      {"serve",
       {"jobs", "workers", "queue", "arrival", "rate", "backend", "config",
        "threads", "kernel", "seed", "width", "height", "listen", "json",
        "deadline-ms", "fault-plan", "scene-budget-mb", "max-scene-mb",
        "scene-dir"}},
      {"request",
       {"host", "port", "synthetic", "scene", "seed", "width", "height",
        "out", "backend", "kernel", "stats", "deadline-ms"}},
      {"route",
       {"listen", "shard", "spawn", "workers", "queue", "backend", "kernel",
        "threads", "json", "deadline-ms", "fault-plan", "readmit-after-ms",
        "scene-budget-mb", "max-scene-mb", "scene-dir"}},
      {"backends", {"json"}},
      {"report", {}},
  };
  return kByCommand.at(command);
}

void reject_foreign_flags(const CliParser& cli, const std::string& command) {
  const std::vector<std::string>& allowed = command_flags(command);
  for (const std::string& name : cli.set_flags()) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw CliParseError("flag --" + name + " is not used by '" + command +
                          "'; see 'gaurast_cli " + command + " --help'");
    }
  }
}

void print_top_usage(std::ostream& os) {
  os << "usage: gaurast_cli "
        "<render|simulate|replay|serve|request|route|backends|report> "
        "[flags]\n"
        "       gaurast_cli <command> --help\n"
        "\n"
        "Commands:\n"
        "  render    render a .ply or synthetic scene through any "
        "registered backend\n"
        "  simulate  evaluate a full-scale NeRF-360 workload profile\n"
        "  replay    re-time a captured tile-load trace (.gtr)\n"
        "  serve     run generated traffic through the concurrent render "
        "service, or\n"
        "            serve the wire protocol on a TCP port with --listen\n"
        "  request   render one frame on (or fetch stats from) a running "
        "serve --listen\n"
        "  route     front a sharded fleet: scene-affine routing across "
        "--shard\n"
        "            servers (or --spawn N forked local workers) with "
        "failover\n"
        "  backends  list the registered engine backends and their "
        "capabilities\n"
        "  report    print every paper table and figure beside the paper's "
        "values\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gaurast;
  // GAURAST_FAULT_PLAN arms a fault plan for the whole process — the env
  // hook chaos tests use to fault freshly spawned fleet workers, which
  // inherit the supervisor's environment (no flag can reach them).
  fault::arm_from_env();
  if (argc < 2) {
    print_top_usage(std::cerr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_top_usage(std::cout);
    return 0;
  }
  // Validate the command before any flag parsing so e.g. `bogus --help`
  // fails instead of printing a help screen for a nonexistent command.
  if (std::find(kCommands.begin(), kCommands.end(), command) ==
      kCommands.end()) {
    std::cerr << "gaurast_cli: unknown command '" << command << "'\n"
              << "Run 'gaurast_cli --help' for usage.\n";
    return 1;
  }
  CliParser cli("gaurast_cli " + command);
  cli.add_flag("ply", "", "3DGS checkpoint .ply to render");
  cli.add_flag("synthetic", "20000", "synthetic Gaussian count (if no --ply)");
  cli.add_flag("width", "320", "render width");
  cli.add_flag("height", "240", "render height");
  cli.add_flag("out", "", "output PPM path");
  cli.add_flag("config", "", "rasterizer config file (core/config_io format)");
  cli.add_flag("scene", "bicycle",
               "simulate: NeRF-360 scene profile name; render/request: "
               "canonical scene key (synthetic:<count>[@<seed>] or "
               "ply:<path-or-name>)");
  cli.add_flag("scene-budget-mb", "0",
               "serve/route: scene-store byte budget in MiB over quantized "
               "scene payloads; LRU eviction above it (0 = unbounded)");
  cli.add_flag("max-scene-mb", "0",
               "serve/route: per-scene quantized-size admission cap in MiB; "
               "larger scenes are refused, never materialized (0 = none)");
  cli.add_flag("scene-dir", "",
               "serve/route: directory ply:<name> scene keys resolve in");
  cli.add_flag("variant", "original", "pipeline variant: original or mini");
  cli.add_flag("trace", "", "tile-load trace (.gtr) to replay");
  cli.add_flag("threads", "1", "per-frame Step-3 raster threads (render/serve)");
  cli.add_flag("kernel", "reference",
               "Step-3 software raster kernel: reference or fast "
               "(render/serve, backends with kernel selection; bit-identical "
               "output)");
  cli.add_flag("seed", "42", "PRNG seed for generated scenes (render/serve)");
  cli.add_flag("jobs", "32", "serve: number of frame requests to generate");
  cli.add_flag("workers", "0", "serve: worker threads (0 = one per core)");
  cli.add_flag("queue", "64", "serve: bounded request-queue capacity");
  cli.add_flag("arrival", "closed", "serve: arrival model, closed or poisson");
  cli.add_flag("rate", "120", "serve: offered load in jobs/s (poisson)");
  cli.add_flag("listen", "0",
               "serve/route: listen for gaurast wire-protocol clients on "
               "this TCP port (0 = ephemeral) instead of generating a "
               "workload; SIGINT/SIGTERM shuts down gracefully");
  cli.add_repeatable_flag(
      "shard",
      "route: fleet shard as host:port (repeat the flag or comma-separate "
      "for more shards)");
  cli.add_flag("spawn", "0",
               "route: fork N local 'serve --listen' workers as the fleet "
               "(supervised: exits are logged and restarted on the same "
               "port) instead of joining --shard servers");
  cli.add_flag("host", "127.0.0.1", "request: server host");
  cli.add_flag("port", "0", "request: server port (as printed by --listen)");
  cli.add_flag("stats", "false",
               "request: fetch the server's schema-stamped stats snapshot "
               "instead of rendering");
  // --backend help is generated from the registry, never hard-coded.
  cli.add_flag("backend", "gaurast",
               "Step-3 executor: " + engine::join_names(engine::names()) +
                   " (render/serve; see 'gaurast_cli backends')");
  cli.add_flag("json", "",
               "serve/route/backends: also write a machine-readable JSON "
               "report ('-' for stdout with 'backends')");
  cli.add_flag("deadline-ms", "0",
               "serve/route: default per-request deadline budget in ms for "
               "requests that carry none; request: the request's own budget "
               "(0 = no deadline)");
  cli.add_flag("fault-plan", "",
               "serve/route: arm a deterministic fault-injection plan "
               "(chaos testing; syntax [seed=N;]point:action[=arg]:trigger, "
               "see src/common/fault.hpp)");
  cli.add_flag("readmit-after-ms", "0",
               "route: cooldown after a shard dies; successes inside it are "
               "ignored and the first one after it re-admits the shard "
               "(0 = re-admit on the first success)");
  try {
    if (!cli.parse(argc - 1, argv + 1)) return 0;
    if (!cli.positional().empty()) {
      throw CliParseError("unexpected argument '" + cli.positional().front() +
                          "'; flags are passed as --name value");
    }
    reject_foreign_flags(cli, command);
    if (command == "render") return cmd_render(cli);
    if (command == "simulate") return cmd_simulate(cli);
    if (command == "replay") return cmd_replay(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "request") return cmd_request(cli);
    if (command == "route") return cmd_route(cli);
    if (command == "backends") return cmd_backends(cli);
    if (command == "report") {
      report::print_report(std::cout);
      return 0;
    }
    // Unreachable while kCommands and the chain above stay in sync.
    std::cerr << "gaurast_cli: unhandled command '" << command << "'\n";
    return 1;
  } catch (const CliParseError& e) {
    std::cerr << "gaurast_cli " << command << ": " << e.what() << '\n';
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
