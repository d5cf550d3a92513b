#include "core/config_io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace gaurast::core {

std::string precision_to_string(Precision precision) {
  return precision == Precision::kFp16 ? "fp16" : "fp32";
}

Precision precision_from_string(const std::string& text) {
  if (text == "fp32") return Precision::kFp32;
  if (text == "fp16") return Precision::kFp16;
  throw Error("unknown precision '" + text + "' (expected fp32 or fp16)");
}

void save_config(const RasterizerConfig& config, const std::string& path) {
  std::ofstream os(path);
  GAURAST_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  os << "# GauRast rasterizer configuration\n"
     << "pes_per_module = " << config.pes_per_module << '\n'
     << "module_count = " << config.module_count << '\n'
     << "clock_ghz = " << config.clock_ghz << '\n'
     << "precision = " << precision_to_string(config.precision) << '\n'
     << "tile_size = " << config.tile_size << '\n'
     << "tile_buffer_bytes = " << config.tile_buffer_bytes << '\n'
     << "mem_bytes_per_cycle = " << config.mem_bytes_per_cycle << '\n'
     << "mem_latency = " << config.mem_latency << '\n'
     << "pipeline_depth = " << config.pipeline_depth << '\n';
  GAURAST_CHECK_MSG(os.good(), "write failure on " << path);
}

namespace {

/// Applies one `key = value` line (comments and blank lines are no-ops);
/// throws gaurast::Error naming what is wrong with it.
void apply_line(RasterizerConfig& config, std::string line) {
  // Strip comments and whitespace-only lines.
  const auto hash = line.find('#');
  if (hash != std::string::npos) line = line.substr(0, hash);
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;
  const auto eq = line.find('=');
  if (eq == std::string::npos) throw Error("expected key = value");
  auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
  };
  const std::string key = trim(line.substr(0, eq));
  const std::string value = trim(line.substr(eq + 1));
  if (key.empty() || value.empty()) throw Error("empty key or value");

  std::istringstream vs(value);
  auto parse = [&](auto& out) {
    vs >> out;
    if (vs.fail()) throw Error("bad value '" + value + "'");
  };
  if (key == "pes_per_module") parse(config.pes_per_module);
  else if (key == "module_count") parse(config.module_count);
  else if (key == "clock_ghz") parse(config.clock_ghz);
  else if (key == "precision") config.precision = precision_from_string(value);
  else if (key == "tile_size") parse(config.tile_size);
  else if (key == "tile_buffer_bytes") parse(config.tile_buffer_bytes);
  else if (key == "mem_bytes_per_cycle") parse(config.mem_bytes_per_cycle);
  else if (key == "mem_latency") parse(config.mem_latency);
  else if (key == "pipeline_depth") parse(config.pipeline_depth);
  else throw Error("unknown key '" + key + "'");
}

}  // namespace

RasterizerConfig load_config(const std::string& path) {
  // A bad file is a user error, not a broken invariant: every error names
  // the file, and the line when there is one.
  const auto bad = [&path](const std::string& where, const char* what) {
    return Error("config '" + path + "'" + where + ": " + what);
  };
  std::ifstream is(path);
  if (!is.is_open()) throw bad("", "cannot open");
  RasterizerConfig config = RasterizerConfig::prototype16();
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    try {
      apply_line(config, line);
    } catch (const Error& e) {
      throw bad(" line " + std::to_string(line_no), e.what());
    }
  }
  try {
    config.validate();
  } catch (const Error& e) {
    throw bad("", e.what());
  }
  return config;
}

}  // namespace gaurast::core
