#include "scene/ply_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "scene/quantized.hpp"

namespace gaurast::scene {

namespace {

constexpr int kRestCoeffs = 45;  // (16 - 1 DC) * 3 channels

/// Rows per streaming-ingest chunk: bounds the float staging buffer to a
/// few hundred KB regardless of checkpoint size.
constexpr std::size_t kChunkRows = 4096;

/// Property order of the reference checkpoint layout.
std::vector<std::string> reference_properties() {
  std::vector<std::string> props = {"x", "y", "z", "nx", "ny", "nz",
                                    "f_dc_0", "f_dc_1", "f_dc_2"};
  for (int i = 0; i < kRestCoeffs; ++i) {
    props.push_back("f_rest_" + std::to_string(i));
  }
  props.push_back("opacity");
  for (int i = 0; i < 3; ++i) props.push_back("scale_" + std::to_string(i));
  for (int i = 0; i < 4; ++i) props.push_back("rot_" + std::to_string(i));
  return props;
}

/// Parsed header plus the property indices one vertex decode needs.
struct PlyLayout {
  std::size_t vertex_count = 0;
  std::size_t property_count = 0;
  bool has_rest = false;
  std::size_t ix = 0, iy = 0, iz = 0;
  std::size_t idc0 = 0, iop = 0, isc0 = 0, irot0 = 0, irest0 = 0;
};

/// Consumes the PLY header from `is` (leaving it at the payload) and
/// validates the format and required properties.
PlyLayout parse_ply_header(std::istream& is, const std::string& path) {
  std::string line;
  std::getline(is, line);
  GAURAST_CHECK_MSG(line == "ply", "not a PLY file: " << path);

  std::size_t vertex_count = 0;
  std::vector<std::string> properties;
  bool binary_le = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string token;
    ls >> token;
    if (token == "format") {
      std::string fmt;
      ls >> fmt;
      binary_le = (fmt == "binary_little_endian");
      GAURAST_CHECK_MSG(binary_le, "unsupported PLY format: " << fmt);
    } else if (token == "element") {
      std::string what;
      ls >> what >> vertex_count;
      GAURAST_CHECK_MSG(what == "vertex", "unexpected PLY element " << what);
    } else if (token == "property") {
      std::string type, name;
      ls >> type >> name;
      GAURAST_CHECK_MSG(type == "float", "unsupported property type " << type);
      properties.push_back(name);
    } else if (token == "end_header") {
      break;
    } else if (token == "comment") {
      continue;
    }
  }
  GAURAST_CHECK_MSG(vertex_count > 0, "PLY has no vertices");

  // Index the properties we need; tolerate extra/unused ones.
  auto index_of = [&properties](const std::string& name) {
    const auto it = std::find(properties.begin(), properties.end(), name);
    GAURAST_CHECK_MSG(it != properties.end(), "PLY missing property " << name);
    return static_cast<std::size_t>(it - properties.begin());
  };
  // decode_row reads f_dc, scale, rot and f_rest as runs of consecutive
  // floats from the first name's index, so each run must be whole, in
  // order, and inside the row.
  auto run_start = [&](const std::string& prefix, std::size_t length) {
    const std::size_t first = index_of(prefix + "0");
    for (std::size_t k = 1; k < length; ++k) {
      if (first + k >= properties.size() ||
          properties[first + k] != prefix + std::to_string(k)) {
        throw Error("PLY '" + path + "': properties " + prefix + "0.." +
                    prefix + std::to_string(length - 1) +
                    " must be consecutive and in order");
      }
    }
    return first;
  };
  PlyLayout layout;
  layout.vertex_count = vertex_count;
  layout.property_count = properties.size();
  layout.ix = index_of("x");
  layout.iy = index_of("y");
  layout.iz = index_of("z");
  layout.idc0 = run_start("f_dc_", 3);
  layout.iop = index_of("opacity");
  layout.isc0 = run_start("scale_", 3);
  layout.irot0 = run_start("rot_", 4);
  layout.has_rest =
      std::find(properties.begin(), properties.end(), "f_rest_0") !=
      properties.end();
  layout.irest0 = layout.has_rest ? run_start("f_rest_", kRestCoeffs) : 0;
  return layout;
}

/// Decodes one vertex row (checkpoint domain) into a Gaussian3D.
Gaussian3D decode_row(const float* row, const PlyLayout& l) {
  Gaussian3D g;
  g.position = {row[l.ix], row[l.iy], row[l.iz]};
  g.sh[0] = {row[l.idc0], row[l.idc0 + 1], row[l.idc0 + 2]};
  if (l.has_rest) {
    for (int ch = 0; ch < 3; ++ch) {
      for (std::size_t band = 1; band < kMaxShBasis; ++band) {
        const float val =
            row[l.irest0 + static_cast<std::size_t>(ch) * (kMaxShBasis - 1) +
                band - 1];
        if (ch == 0) g.sh[band].x = val;
        else if (ch == 1) g.sh[band].y = val;
        else g.sh[band].z = val;
      }
    }
  }
  g.opacity = std::clamp(ply_sigmoid(row[l.iop]), 0.0f, 1.0f);
  g.scale = {std::exp(row[l.isc0]), std::exp(row[l.isc0 + 1]),
             std::exp(row[l.isc0 + 2])};
  g.rotation =
      Quatf{row[l.irot0], row[l.irot0 + 1], row[l.irot0 + 2],
            row[l.irot0 + 3]}
          .normalized();
  return g;
}

}  // namespace

float ply_sigmoid(float logit_opacity) {
  return 1.0f / (1.0f + std::exp(-logit_opacity));
}

float ply_logit(float opacity) {
  const float p = std::clamp(opacity, 1e-6f, 1.0f - 1e-6f);
  return std::log(p / (1.0f - p));
}

void save_ply(const GaussianScene& scene, const std::string& path) {
  GAURAST_CHECK_MSG(scene.sh_degree() == 3 || scene.sh_degree() == 0,
                    "PLY export supports SH degree 0 or 3, got "
                        << scene.sh_degree());
  std::ofstream os(path, std::ios::binary);
  GAURAST_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");

  os << "ply\nformat binary_little_endian 1.0\n"
     << "element vertex " << scene.size() << "\n";
  for (const std::string& prop : reference_properties()) {
    os << "property float " << prop << "\n";
  }
  os << "end_header\n";

  auto put = [&os](float v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (std::size_t i = 0; i < scene.size(); ++i) {
    const Gaussian3D g = scene.gaussian(i);
    put(g.position.x);
    put(g.position.y);
    put(g.position.z);
    put(0.0f);  // normals unused by 3DGS, present in the layout
    put(0.0f);
    put(0.0f);
    put(g.sh[0].x);
    put(g.sh[0].y);
    put(g.sh[0].z);
    // f_rest is channel-major in the reference layout: all R coefficients
    // for bands 1..15, then G, then B.
    for (int ch = 0; ch < 3; ++ch) {
      for (std::size_t band = 1; band < kMaxShBasis; ++band) {
        const Vec3f c = g.sh[band];
        put(ch == 0 ? c.x : (ch == 1 ? c.y : c.z));
      }
    }
    put(ply_logit(g.opacity));
    put(std::log(std::max(g.scale.x, 1e-9f)));
    put(std::log(std::max(g.scale.y, 1e-9f)));
    put(std::log(std::max(g.scale.z, 1e-9f)));
    put(g.rotation.w);
    put(g.rotation.x);
    put(g.rotation.y);
    put(g.rotation.z);
  }
  GAURAST_CHECK_MSG(os.good(), "write failure on " << path);
}

GaussianScene load_ply(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  GAURAST_CHECK_MSG(is.is_open(), "cannot open " << path);
  const PlyLayout layout = parse_ply_header(is, path);

  GaussianScene scene(layout.has_rest ? 3 : 0);
  scene.reserve(layout.vertex_count);
  std::vector<float> row(layout.property_count);
  for (std::size_t v = 0; v < layout.vertex_count; ++v) {
    is.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
    GAURAST_CHECK_MSG(is.good(), "truncated PLY payload at vertex " << v);
    scene.add(decode_row(row.data(), layout));
  }
  return scene;
}

QuantizedScene load_ply_quantized(const std::string& path,
                                  std::size_t max_bytes) {
  std::ifstream is(path, std::ios::binary);
  GAURAST_CHECK_MSG(is.is_open(), "cannot open " << path);
  const PlyLayout layout = parse_ply_header(is, path);
  const int sh_degree = layout.has_rest ? 3 : 0;

  // Admission happens here, off the header's vertex count, before a single
  // payload byte is read — an over-budget checkpoint costs a refusal, not
  // a resident allocation.
  const std::size_t quantized_bytes =
      quantized_bytes_per_splat(sh_degree) * layout.vertex_count;
  if (max_bytes > 0 && quantized_bytes > max_bytes) {
    throw SceneOverBudgetError(
        "PLY '" + path + "' needs " + std::to_string(quantized_bytes) +
        " quantized bytes (" + std::to_string(layout.vertex_count) +
        " vertices), over the " + std::to_string(max_bytes) +
        "-byte admission limit");
  }

  QuantizedSceneBuilder builder(sh_degree);
  builder.reserve(layout.vertex_count);
  // Stream the payload in bounded chunks straight into quantized form:
  // peak float staging is kChunkRows rows, not the whole checkpoint.
  std::vector<float> chunk(layout.property_count * kChunkRows);
  std::size_t done = 0;
  while (done < layout.vertex_count) {
    const std::size_t rows = std::min(kChunkRows, layout.vertex_count - done);
    is.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(rows * layout.property_count *
                                         sizeof(float)));
    GAURAST_CHECK_MSG(is.good(), "truncated PLY payload at vertex " << done);
    for (std::size_t r = 0; r < rows; ++r) {
      builder.add(decode_row(chunk.data() + r * layout.property_count,
                             layout));
    }
    done += rows;
  }
  return builder.take();
}

}  // namespace gaurast::scene
