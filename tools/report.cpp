// `gaurast_cli report`: every paper evaluation artifact from one table of
// sections, each a banner title plus a print function.
//
// Each (variant, scene) row — CUDA stage times on the Orin NX, the GauRast
// profile simulation of the scaled 300-PE design and the CUDA-collaborative
// end-to-end schedule — is modeled once. Sections only format those rows,
// or run the one probe their artifact needs (an area model, an ablation's
// operating point, a rendered scene), and print the paper's published value
// beside each modeled one.
//
// tests/golden/report.txt pins the output byte for byte (ctest
// report_golden). Re-record it with
//   build/tools/gaurast_cli report > tests/golden/report.txt

#include "report.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/gscore.hpp"
#include "common/chart.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/area.hpp"
#include "core/energy.hpp"
#include "core/hw_rasterizer.hpp"
#include "core/pe.hpp"
#include "core/profile_sim.hpp"
#include "core/scheduler.hpp"
#include "engine/registry.hpp"
#include "gpu/config.hpp"
#include "gpu/cost_model.hpp"
#include "mesh/primitives.hpp"
#include "pipeline/renderer.hpp"
#include "scene/generator.hpp"
#include "scene/profile.hpp"

namespace gaurast::report {
namespace {

/// One NeRF-360 scene of one pipeline variant, modeled once.
struct SceneRow {
  scene::SceneProfile profile;
  gpu::StageTimes cuda;         ///< CUDA-only stage times
  double cuda_raster_mj = 0.0;  ///< CUDA Step-3 energy
  core::ProfileSimResult hw;    ///< GauRast Step 3, scaled 300-PE design
  core::EndToEndResult e2e;     ///< CUDA-collaborative schedule
};

/// One pipeline variant's rows and the paper's averages for it.
struct Variant {
  double paper_raster_speedup = 0.0;  ///< Fig. 10
  double paper_energy_gain = 0.0;     ///< Fig. 10
  double paper_e2e_speedup = 0.0;     ///< Fig. 11
  double paper_fps = 0.0;             ///< Fig. 11
  std::vector<SceneRow> rows;
};

struct Rows {
  gpu::CudaCostModel cuda;
  Variant original;
  Variant mini;

  const SceneRow& bicycle() const {
    const auto it = std::find_if(
        original.rows.begin(), original.rows.end(),
        [](const SceneRow& r) { return r.profile.name == "bicycle"; });
    GAURAST_CHECK(it != original.rows.end());
    return *it;
  }
};

std::vector<SceneRow> model_scenes(
    const gpu::CudaCostModel& cuda,
    const std::vector<scene::SceneProfile>& profiles) {
  const core::ProfileSimulator sim(core::RasterizerConfig::scaled300());
  std::vector<SceneRow> rows;
  for (const scene::SceneProfile& p : profiles) {
    SceneRow r{p, cuda.frame_times(p), cuda.raster_energy_mj(p),
               sim.simulate(p), {}};
    r.e2e = core::schedule_frame(r.cuda, r.hw.runtime_ms());
    rows.push_back(std::move(r));
  }
  return rows;
}

double raster_speedup(const SceneRow& r) { return r.e2e.raster_speedup(); }
double energy_gain(const SceneRow& r) {
  return r.cuda_raster_mj / r.hw.energy_soc.total_mj();
}
double cuda_only_fps(const SceneRow& r) { return r.e2e.cuda_only_fps(); }
double pipelined_fps(const SceneRow& r) { return r.e2e.pipelined_fps(); }
double e2e_speedup(const SceneRow& r) { return r.e2e.end_to_end_speedup(); }

/// Arithmetic mean over the rows, as the paper reports its averages.
double average(const std::vector<SceneRow>& rows,
               double (*value)(const SceneRow&)) {
  double sum = 0.0;
  for (const SceneRow& r : rows) sum += value(r);
  return sum / static_cast<double>(rows.size());
}

void print_bars(std::ostream& os, const std::string& title,
                const std::string& unit, const std::vector<SceneRow>& rows,
                double (*value)(const SceneRow&)) {
  BarChart chart(title, unit);
  for (const SceneRow& r : rows) chart.add_bar(r.profile.name, value(r));
  os << '\n';
  chart.print(os);
}

/// Paper Table III (ms), original 3DGS pipeline.
struct PaperTab3Row {
  std::string_view scene;
  double baseline_ms;
  double gaurast_ms;
};
constexpr std::array<PaperTab3Row, 7> kPaperTab3{{
    {"bicycle", 321, 15.0},
    {"stump", 149, 6.0},
    {"garden", 232, 9.6},
    {"room", 236, 10.5},
    {"counter", 216, 9.8},
    {"kitchen", 269, 12.2},
    {"bonsai", 147, 5.5},
}};

const PaperTab3Row& paper_tab3(const std::string& scene) {
  const auto it =
      std::find_if(kPaperTab3.begin(), kPaperTab3.end(),
                   [&](const PaperTab3Row& r) { return r.scene == scene; });
  GAURAST_CHECK_MSG(it != kPaperTab3.end(), "no Table III row for " << scene);
  return *it;
}

// ---------------------------------------------------------- Sections -----

void summary(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Scene", "Raster speedup", "E2E FPS (GauRast)",
                      "E2E speedup"});
  for (const SceneRow& r : rows.original.rows) {
    table.add_row({r.profile.name, format_ratio(raster_speedup(r)),
                   format_fixed(pipelined_fps(r), 1),
                   format_ratio(e2e_speedup(r))});
  }
  table.print(os);
  const std::vector<SceneRow>& o = rows.original.rows;
  os << "Averages: raster " << format_ratio(average(o, raster_speedup))
     << " (paper ~23x), " << format_fixed(average(o, pipelined_fps), 1)
     << " FPS (paper ~24), end-to-end "
     << format_ratio(average(o, e2e_speedup)) << " (paper ~6x)\n";
}

// Table I is qualitative in the paper; modeled frame times back its rows.
void table1_methods(const Rows& rows, std::ostream& os) {
  const auto pixels = rows.bicycle().profile.pixel_count();
  // A game-grade mesh of the same scene: ~1M triangles, 2x overdraw.
  const double mesh_ms = rows.cuda.triangle_render_ms(1'000'000, pixels, 2.0);
  // Vanilla NeRF: 192 samples/ray through an 8x256 MLP.
  const double nerf_ms = rows.cuda.nerf_render_ms(pixels);
  const double gs_ms = rows.bicycle().cuda.total_ms();

  TablePrinter table({"Method", "Scene reconstruction", "Quality",
                      "Frame time (model)", "FPS", "Paper speed class"});
  table.add_row({"Triangle mesh", "manual", "manually decided",
                 format_time_ms(mesh_ms), format_fixed(1000.0 / mesh_ms, 0),
                 "Fast"});
  table.add_row({"NeRF", "automatic", "high", format_time_ms(nerf_ms),
                 format_fixed(1000.0 / nerf_ms, 3), "Slow"});
  table.add_row({"3D Gaussian", "automatic", "very high",
                 format_time_ms(gs_ms), format_fixed(1000.0 / gs_ms, 1),
                 "Medium"});
  table.print(os);
  os << "\nOrdering matches the paper: mesh >> 3DGS >> NeRF in speed,\n"
        "with 3DGS the only automatic + very-high-quality option.\n";
}

void fig4_baseline_fps(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Scene", "Preprocess", "Sort", "Raster", "Frame", "FPS"});
  for (const SceneRow& r : rows.original.rows) {
    const gpu::StageTimes& t = r.cuda;
    table.add_row({r.profile.name, format_time_ms(t.preprocess_ms),
                   format_time_ms(t.sort_ms), format_time_ms(t.raster_ms),
                   format_time_ms(t.total_ms()), format_fixed(t.fps(), 2)});
  }
  table.print(os);
  const auto fps = [](const SceneRow& r) { return r.cuda.fps(); };
  print_bars(os, "Throughput per scene (cf. paper Fig. 4)", "FPS",
             rows.original.rows, fps);
  const auto [lo, hi] = std::minmax_element(
      rows.original.rows.begin(), rows.original.rows.end(),
      [&](const SceneRow& a, const SceneRow& b) { return fps(a) < fps(b); });
  os << "\nModel FPS range: " << format_fixed(fps(*lo), 1) << " - "
     << format_fixed(fps(*hi), 1)
     << "  (paper: 2-5 FPS across all seven scenes)\n";
}

void fig5_breakdown(const Rows& rows, std::ostream& os) {
  TablePrinter table(
      {"Scene", "Step1 (preprocess)", "Step2 (sort)", "Step3 (raster)"});
  bool all_above_80 = true;
  for (const SceneRow& r : rows.original.rows) {
    const gpu::StageTimes& t = r.cuda;
    all_above_80 = all_above_80 && t.raster_share() > 0.80;
    table.add_row({r.profile.name,
                   format_percent(t.preprocess_ms / t.total_ms()),
                   format_percent(t.sort_ms / t.total_ms()),
                   format_percent(t.raster_share())});
  }
  table.print(os);
  os << "\nStep 3 dominates (>80%) in all scenes: "
     << (all_above_80 ? "YES" : "NO")
     << "  (paper: >80% across all seven scenes)\n";
}

void table2_primitives(const Rows&, std::ostream& os) {
  TablePrinter table(
      {"Subtask", "Triangle rasterization", "Gaussian rasterization"});
  table.add_row({"Input", "vertices' coordinates (9 FP)",
                 "conic/mean/opacity/color (9 FP)"});
  table.add_row(
      {"1. Coordinate shift", "ADD, MUL", "ADD (2 dedicated adders)"});
  table.add_row({"2. Intersection / probability", "ADD, MUL, DIV (edge fns)",
                 "ADD, MUL, EXP (conic form)"});
  table.add_row({"3. UV / color weight", "ADD, MUL (barycentric)",
                 "MUL (T x alpha x color)"});
  table.add_row({"4. Reduction", "min-depth color hold", "color accumulation"});
  table.add_row(
      {"Output", "UV weight + depth (3 FP)", "accumulated color (3 FP)"});
  table.print(os);
}

void pe_inventory(const Rows&, std::ostream& os) {
  const core::PeResources res{};
  os << "Shared: " << res.shared_adders << " adders, "
     << res.shared_multipliers << " multipliers\n"
     << "Triangle-only: " << res.triangle_dividers << " divider\n"
     << "Gaussian enhancement: " << res.gaussian_adders << " adders, "
     << res.gaussian_multipliers << " multiplier, " << res.gaussian_exp_units
     << " exp unit\n";
}

// Table II's operator mix, counted by the functional hardware model on a
// Gaussian and a triangle probe workload.
void measured_ops(const Rows&, std::ostream& os) {
  const core::HardwareRasterizer hw(core::RasterizerConfig::prototype16());
  scene::GeneratorParams params;
  params.gaussian_count = 4000;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const scene::Camera cam = scene::default_camera(params, 256, 192);
  const pipeline::GaussianRenderer renderer;
  const pipeline::FrameResult frame = renderer.prepare(gscene, cam);
  const core::HwRasterResult gres = hw.rasterize_gaussians(
      frame.splats, frame.workload, renderer.config().blend);
  const std::vector<mesh::ScreenTriangle> prims =
      mesh::build_primitives(mesh::make_sphere(24, 32), cam);
  const core::HwRasterResult tres =
      hw.rasterize_triangles(prims, 256, 192, {0, 0, 0});

  TablePrinter ops({"Mode", "pairs", "ADD/pair", "MUL/pair", "EXP/pair",
                    "DIV total", "CMP/pair"});
  const auto add_mode = [&](const char* mode, const core::HwRasterResult& r) {
    const auto per = [&](const char* op) {
      const std::uint64_t pairs = r.pairs_evaluated;
      return format_fixed(pairs ? static_cast<double>(r.counters.get(op)) /
                                      static_cast<double>(pairs)
                                : 0.0,
                          2);
    };
    ops.add_row({mode, std::to_string(r.pairs_evaluated),
                 per(sim::ops::kFp32Add), per(sim::ops::kFp32Mul),
                 per(sim::ops::kFp32Exp),
                 std::to_string(r.counters.get(sim::ops::kFp32Div)),
                 per(sim::ops::kFp32Cmp)});
  };
  add_mode("Gaussian", gres);
  add_mode("Triangle", tres);
  ops.print(os);
  os << "\nBoth modes share the adder/multiplier pool; DIV appears only in\n"
        "triangle mode (per-primitive setup), EXP only in Gaussian mode.\n";
}

void fig9_module_area(const Rows&, std::ostream& os) {
  const core::ModuleArea m =
      core::AreaModel(core::RasterizerConfig::prototype16()).module_area();
  TablePrinter table({"Component", "Area", "Share", "Paper"});
  table.add_row({"PE block (16 PEs + staging)",
                 format_fixed(m.pe_block_um2 * 1e-6, 3) + " mm2",
                 format_percent(m.pe_block_share()), "89.2%"});
  table.add_row({"Tile buffers",
                 format_fixed(m.tile_buffers_um2 * 1e-6, 3) + " mm2",
                 format_percent(m.tile_buffers_share()), "10.1%"});
  table.add_row({"Controller",
                 format_fixed(m.controller_um2 * 1e-6, 4) + " mm2",
                 format_percent(m.controller_share()), "0.1%"});
  table.add_row({"Module total", format_fixed(m.total_mm2(), 3) + " mm2",
                 "100%", "1.57mm x 1.55mm (2.43 mm2)"});
  table.print(os);
  os << "\nLayout: " << format_fixed(m.layout_width_mm(), 2) << " mm x "
     << format_fixed(m.layout_height_mm(), 2) << " mm\n";
}

void fig9_pe_area(const Rows&, std::ostream& os) {
  const core::PeArea pe =
      core::AreaModel(core::RasterizerConfig::prototype16()).pe_area();
  TablePrinter table({"Logic", "Area (um2)", "Share", "Paper"});
  table.add_row({"Shared + triangle (pre-existing)",
                 format_fixed(pe.shared_um2 + pe.triangle_um2, 0),
                 format_percent(1.0 - pe.enhanced_share()), "79%"});
  table.add_row({"Gaussian enhancement (2 add, 1 mul, 1 exp)",
                 format_fixed(pe.gaussian_um2, 0),
                 format_percent(pe.enhanced_share()), "21%"});
  table.print(os);
}

void sec5a_soc_integration(const Rows&, std::ostream& os) {
  const gpu::GpuConfig host = gpu::orin_nx_10w();
  for (const auto& [label, cfg] :
       {std::pair{"scaled300", core::RasterizerConfig::scaled300()},
        std::pair{"scaled240", core::RasterizerConfig::scaled240()}}) {
    const core::AreaModel area(cfg);
    os << label << ": enhanced area " << format_fixed(area.enhanced_mm2(), 2)
       << " mm2 @28nm, " << format_fixed(area.enhanced_soc_mm2(), 2)
       << " mm2 at SoC node = " << format_percent(area.soc_fraction(host), 2)
       << " of the Orin NX die (paper: ~0.2%)\n";
  }
  const core::EnergyModel energy(core::RasterizerConfig::prototype16());
  os << "Typical 16-PE module power: "
     << format_fixed(energy.typical_module_power_w(), 2)
     << " W (paper: 1.7 W)\n";
}

void fig10_speedup_energy(const Variant& v, std::ostream& os) {
  TablePrinter table({"Scene", "Speedup", "Energy gain", "GauRast power",
                      "GauRast energy", "Baseline energy"});
  for (const SceneRow& r : v.rows) {
    table.add_row({r.profile.name, format_ratio(raster_speedup(r)),
                   format_ratio(energy_gain(r)),
                   format_fixed(r.hw.power_w_soc(), 2) + " W",
                   format_energy_mj(r.hw.energy_soc.total_mj()),
                   format_energy_mj(r.cuda_raster_mj)});
  }
  table.print(os);
  print_bars(os, "Rasterization speedup per scene (cf. paper Fig. 10)", "x",
             v.rows, raster_speedup);
  os << "Average: speedup " << format_ratio(average(v.rows, raster_speedup))
     << " (paper ~" << format_ratio(v.paper_raster_speedup)
     << "), energy gain " << format_ratio(average(v.rows, energy_gain))
     << " (paper ~" << format_ratio(v.paper_energy_gain) << ")\n";
}

void table3_raster_runtime(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Scene", "Baseline (model)", "Baseline (paper)",
                      "GauRast (model)", "GauRast (paper)", "Speedup (model)",
                      "Utilization"});
  for (const SceneRow& r : rows.original.rows) {
    const PaperTab3Row& paper = paper_tab3(r.profile.name);
    table.add_row({r.profile.name, format_time_ms(r.cuda.raster_ms),
                   format_time_ms(paper.baseline_ms),
                   format_time_ms(r.hw.runtime_ms()),
                   format_time_ms(paper.gaurast_ms),
                   format_ratio(raster_speedup(r)),
                   format_percent(r.hw.utilization())});
  }
  table.print(os);
  os << "\nAverage rasterization speedup: "
     << format_ratio(average(rows.original.rows, raster_speedup))
     << "  (paper: ~23x average)\n";
}

void fig11_end_to_end(const Variant& v, std::ostream& os) {
  TablePrinter table({"Scene", "FPS w/o GauRast", "FPS w/ GauRast",
                      "E2E speedup", "Stage1-2", "GauRast raster"});
  for (const SceneRow& r : v.rows) {
    table.add_row({r.profile.name, format_fixed(cuda_only_fps(r), 1),
                   format_fixed(pipelined_fps(r), 1),
                   format_ratio(e2e_speedup(r)),
                   format_time_ms(r.e2e.stage12_ms),
                   format_time_ms(r.e2e.gaurast_raster_ms)});
  }
  table.print(os);
  print_bars(os, "End-to-end FPS with GauRast (cf. paper Fig. 11)", "FPS",
             v.rows, pipelined_fps);
  os << "Average: " << format_fixed(average(v.rows, cuda_only_fps), 1)
     << " FPS -> " << format_fixed(average(v.rows, pipelined_fps), 1)
     << " FPS, speedup " << format_ratio(average(v.rows, e2e_speedup))
     << "  (paper: ~" << format_ratio(v.paper_e2e_speedup) << " to ~"
     << format_fixed(v.paper_fps, 0) << " FPS)\n";
}

// GSCore: 20x raster speedup on the Xavier NX from 3.95 mm^2 of dedicated
// FP16 logic. GauRast at FP16 matches that throughput by only adding the
// Gaussian enhancement to the existing triangle rasterizer.
void sec5c_gscore(const Rows& rows, std::ostream& os) {
  const accel::GScoreSpec spec = accel::gscore_published();
  const accel::AreaEfficiencyComparison cmp = accel::compare_area_efficiency(
      gpu::xavier_nx(), rows.bicycle().profile, spec);
  TablePrinter table({"Quantity", "Model", "Paper"});
  table.add_row({"GSCore speedup vs " + spec.host_name,
                 format_ratio(spec.raster_speedup_vs_host), "20x"});
  table.add_row({"Matched throughput (Gpairs/s)",
                 format_fixed(cmp.target_pairs_per_second / 1e9, 1), "-"});
  table.add_row({"GauRast FP16 PEs required",
                 std::to_string(cmp.gaurast_fp16_pes), "-"});
  table.add_row({"GauRast added area",
                 format_fixed(cmp.gaurast_enhanced_mm2, 3) + " mm2",
                 "0.16 mm2"});
  table.add_row({"GSCore dedicated area",
                 format_fixed(cmp.gscore_mm2, 2) + " mm2", "3.95 mm2"});
  table.add_row({"Area-efficiency gain",
                 format_ratio(cmp.area_efficiency_gain), "24.7x"});
  table.print(os);
  os << "\nThe gain comes from reusing the triangle rasterizer's shared\n"
        "adder/multiplier pool, buffers and controllers instead of\n"
        "duplicating them in a dedicated accelerator.\n";

  // The same operating point is the engine registry's "gscore" backend:
  // the sized deployment renders a frame through the one backend API.
  const std::unique_ptr<engine::RenderBackend> backend =
      engine::create("gscore");
  scene::GeneratorParams params;
  params.gaussian_count = 2000;
  const scene::GaussianScene gscene = scene::generate_scene(params);
  const scene::Camera camera = scene::default_camera(params, 160, 120);
  const engine::FrameOutput frame =
      backend->render(gscene, camera, engine::FrameOptions{});
  os << "\nEngine backend '" << backend->name()
     << "': " << backend->describe() << "\n  "
     << backend->rasterizer_config()->total_pes() << " "
     << engine::precision_name(backend->capabilities().default_precision)
     << " PEs served a " << params.gaussian_count << "-Gaussian frame in "
     << format_time_ms(frame.hw->raster_model_ms) << " (modeled Step 3, "
     << format_percent(frame.hw->utilization) << " utilization)\n";
}

// OpenSplat on an Apple M2 Pro: the enhancement applies to any GPU with a
// triangle rasterizer (paper: 11.2x on bicycle).
void sec5d_m2pro(const Rows& rows, std::ostream& os) {
  const gpu::GpuConfig m2 = gpu::m2_pro();
  const SceneRow& bicycle = rows.bicycle();
  const double sw_ms = gpu::CudaCostModel(m2).raster_ms(bicycle.profile);
  TablePrinter table({"Quantity", "Model", "Paper"});
  table.add_row(
      {"Host FP32 rate vs Orin NX",
       format_ratio(m2.fma_rate_gfma / rows.cuda.config().fma_rate_gfma),
       "2.6x"});
  table.add_row({"OpenSplat raster (bicycle)", format_time_ms(sw_ms), "-"});
  table.add_row({"GauRast raster (bicycle)",
                 format_time_ms(bicycle.hw.runtime_ms()), "-"});
  table.add_row({"Rasterization speedup",
                 format_ratio(sw_ms / bicycle.hw.runtime_ms()), "11.2x"});
  table.print(os);
  os << "\nGauRast attaches to any GPU with a triangle rasterizer; the\n"
        "speedup shrinks with host FP32 capability but remains >10x on\n"
        "a laptop-class part.\n";
}

void ablation_pe_scaling(const Rows& rows, std::ostream& os) {
  const SceneRow& bicycle = rows.bicycle();
  TablePrinter table({"Config", "PEs", "Raster", "Speedup", "Utilization"});
  for (int modules : {1, 2, 4, 8, 15}) {
    core::RasterizerConfig cfg = core::RasterizerConfig::prototype16();
    cfg.module_count = modules;
    cfg.pes_per_module = 20;
    const core::ProfileSimResult r =
        core::ProfileSimulator(cfg).simulate(bicycle.profile);
    table.add_row({std::to_string(modules) + " modules",
                   std::to_string(cfg.total_pes()),
                   format_time_ms(r.runtime_ms()),
                   format_ratio(bicycle.cuda.raster_ms / r.runtime_ms()),
                   format_percent(r.utilization())});
  }
  table.print(os);
}

void ablation_bandwidth(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Bytes/cycle/module", "Raster", "Utilization"});
  for (double bpc : {4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    core::RasterizerConfig cfg = core::RasterizerConfig::scaled300();
    cfg.mem_bytes_per_cycle = bpc;
    const core::ProfileSimResult r =
        core::ProfileSimulator(cfg).simulate(rows.bicycle().profile);
    table.add_row({format_fixed(bpc, 0), format_time_ms(r.runtime_ms()),
                   format_percent(r.utilization())});
  }
  table.print(os);
  os << "Ping-pong buffering hides fills once the interface sustains\n"
        "the tile primitive stream; below that the PE block starves.\n";
}

void ablation_pipelining(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Scene", "CUDA-only FPS", "Serial FPS",
                      "Pipelined FPS", "Pipelining gain"});
  for (const SceneRow& r : rows.original.rows) {
    table.add_row({r.profile.name, format_fixed(cuda_only_fps(r), 1),
                   format_fixed(r.e2e.serial_fps(), 1),
                   format_fixed(pipelined_fps(r), 1),
                   format_ratio(pipelined_fps(r) / r.e2e.serial_fps())});
  }
  table.print(os);
}

void ablation_precision(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Precision", "Raster (bicycle)", "Enhanced area @28nm",
                      "Module power"});
  for (const bool half : {false, true}) {
    core::RasterizerConfig cfg = core::RasterizerConfig::scaled300();
    if (half) cfg.precision = core::Precision::kFp16;
    const core::ProfileSimResult r =
        core::ProfileSimulator(cfg).simulate(rows.bicycle().profile);
    const core::EnergyModel energy(half
                                       ? core::RasterizerConfig::fp16(16)
                                       : core::RasterizerConfig::prototype16());
    table.add_row({half ? "FP16" : "FP32", format_time_ms(r.runtime_ms()),
                   format_fixed(core::AreaModel(cfg).enhanced_mm2(), 2) +
                       " mm2",
                   format_fixed(energy.typical_module_power_w(), 2) + " W"});
  }
  table.print(os);
}

// Rendered at reduced scale, so the effect is measured, not modeled.
void ablation_culling(const Rows&, std::ostream& os) {
  scene::GeneratorParams gp;
  gp.gaussian_count = 20000;
  const scene::GaussianScene sc = scene::generate_scene(gp);
  const scene::Camera cam = scene::default_camera(gp, 320, 240);
  const auto loose = pipeline::GaussianRenderer().render(sc, cam);
  pipeline::RendererConfig tight_cfg;
  tight_cfg.culling = pipeline::CullingMode::kTightEllipse;
  const auto tight = pipeline::GaussianRenderer(tight_cfg).render(sc, cam);
  TablePrinter table({"Culling", "Tile instances", "Pairs evaluated",
                      "Image max diff vs bbox"});
  table.add_row({"bounding box (reference)",
                 std::to_string(loose.workload.instance_count()),
                 std::to_string(loose.raster_stats.pairs_evaluated), "-"});
  table.add_row({"tight ellipse",
                 std::to_string(tight.workload.instance_count()),
                 std::to_string(tight.raster_stats.pairs_evaluated),
                 format_fixed(tight.image.max_abs_diff(loose.image), 6)});
  table.print(os);
  os << "Shape-aware culling (as GSCore implements in hardware) cuts\n"
        "sort + raster work with zero image change; it composes with\n"
        "GauRast since Step 2 stays on the CUDA cores.\n";
}

void ablation_dvfs(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Clock", "Vdd", "Raster", "Power @SoC", "Energy @SoC"});
  for (double clk : {0.6, 0.8, 1.0, 1.2}) {
    core::RasterizerConfig cfg = core::RasterizerConfig::scaled300();
    cfg.clock_ghz = clk;
    const core::ProfileSimulator sim(
        cfg, core::dvfs_scaled_table(core::EnergyTable{}, clk));
    const core::ProfileSimResult r = sim.simulate(rows.bicycle().profile);
    table.add_row({format_fixed(clk, 1) + " GHz",
                   format_fixed(core::dvfs_voltage({}, clk), 2) + " V",
                   format_time_ms(r.runtime_ms()),
                   format_fixed(r.power_w_soc(), 2) + " W",
                   format_energy_mj(r.energy_soc.total_mj())});
  }
  table.print(os);
  os << "Lower clocks trade runtime for quadratic dynamic-energy\n"
        "savings; 1 GHz is the paper's design point.\n";
}

void ablation_tile_size(const Rows& rows, std::ostream& os) {
  TablePrinter table({"Tile", "Raster (bicycle)", "Utilization"});
  for (int ts : {8, 16, 32}) {
    core::RasterizerConfig cfg = core::RasterizerConfig::scaled300();
    cfg.tile_size = ts;
    const core::ProfileSimResult r =
        core::ProfileSimulator(cfg).simulate(rows.bicycle().profile);
    table.add_row({std::to_string(ts) + "x" + std::to_string(ts),
                   format_time_ms(r.runtime_ms()),
                   format_percent(r.utilization())});
  }
  table.print(os);
}

/// One report section: its banner, named after the paper artifact, and
/// the function that prints its body.
struct Section {
  const char* title;
  void (*print)(const Rows&, std::ostream&);
};

// Paper order: motivation (Table I, Figs. 4-5), design (Table II),
// evaluation (Sec. V), then the design-choice ablations.
constexpr auto kSections = std::to_array<Section>({
    {"GauRast headline reproduction summary", summary},
    {"Table I — Rendering methodology comparison (Orin NX, 10W)",
     table1_methods},
    {"Fig. 4 — Baseline 3DGS throughput on Jetson Orin NX (10W)",
     fig4_baseline_fps},
    {"Fig. 5 — Runtime breakdown per stage (Jetson Orin NX, 10W)",
     fig5_breakdown},
    {"Table II — Computational primitives for rasterization",
     table2_primitives},
    {"PE resource inventory (paper Sec. IV-B)", pe_inventory},
    {"Measured datapath op counts (per evaluated pair)", measured_ops},
    {"Fig. 9 — Layout & area breakdown (16-PE module, 28nm)",
     fig9_module_area},
    {"Fig. 9 (right) — Breakdown of one PE", fig9_pe_area},
    {"Sec. V-A — SoC integration & power", sec5a_soc_integration},
    {"Fig. 10 (top) — Rasterization speedup & energy, original 3DGS",
     [](const Rows& r, std::ostream& os) {
       fig10_speedup_energy(r.original, os);
     }},
    {"Fig. 10 (bottom) — Rasterization speedup & energy, Mini-Splatting",
     [](const Rows& r, std::ostream& os) { fig10_speedup_energy(r.mini, os); }},
    {"Table III — Rasterization runtime w/ and w/o GauRast (original 3DGS)",
     table3_raster_runtime},
    {"Fig. 11 (left) — End-to-end FPS, original 3DGS",
     [](const Rows& r, std::ostream& os) { fig11_end_to_end(r.original, os); }},
    {"Fig. 11 (right) — End-to-end FPS, Mini-Splatting",
     [](const Rows& r, std::ostream& os) { fig11_end_to_end(r.mini, os); }},
    {"Sec. V-C — GauRast (FP16) vs GSCore area efficiency", sec5c_gscore},
    {"Sec. V-D — Portability: Apple M2 Pro + OpenSplat", sec5d_m2pro},
    {"Ablation (a) — PE scaling (bicycle, original 3DGS)",
     ablation_pe_scaling},
    {"Ablation (b) — memory bandwidth sensitivity", ablation_bandwidth},
    {"Ablation (c) — pipelined vs serial CUDA handoff", ablation_pipelining},
    {"Ablation (d) — FP16 vs FP32 datapath", ablation_precision},
    {"Ablation (e) — tight ellipse culling (rendered scene)",
     ablation_culling},
    {"Ablation (f) — DVFS operating point (bicycle)", ablation_dvfs},
    {"Ablation (g) — tile size", ablation_tile_size},
});

}  // namespace

void print_report(std::ostream& os) {
  const gpu::CudaCostModel cuda(gpu::orin_nx_10w());
  const Rows rows{
      cuda,
      {23.0, 24.0, 6.0, 24.0, model_scenes(cuda, scene::nerf360_profiles())},
      {20.0, 22.0, 4.0, 46.0,
       model_scenes(cuda, scene::nerf360_mini_profiles())}};
  for (const Section& section : kSections) {
    print_banner(os, section.title);
    section.print(rows, os);
  }
}

}  // namespace gaurast::report
