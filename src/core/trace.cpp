#include "core/trace.hpp"

#include <algorithm>
#include <fstream>

#include "common/error.hpp"

namespace gaurast::core {

namespace {
constexpr char kMagic[4] = {'G', 'T', 'R', '1'};
}

void save_trace(const std::vector<TileLoad>& tiles, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  GAURAST_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  os.write(kMagic, 4);
  const std::uint64_t count = tiles.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const TileLoad& t : tiles) {
    os.write(reinterpret_cast<const char*>(&t.pairs), sizeof(t.pairs));
    os.write(reinterpret_cast<const char*>(&t.fill_bytes),
             sizeof(t.fill_bytes));
  }
  GAURAST_CHECK_MSG(os.good(), "write failure on " << path);
}

std::vector<TileLoad> load_trace(const std::string& path) {
  // A bad file is a user error, not a broken invariant: name the file.
  const auto bad = [&path](const std::string& what) {
    return Error("trace '" + path + "': " + what);
  };
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) throw bad("cannot open");
  char magic[4];
  is.read(magic, 4);
  if (!is.good() || !std::equal(magic, magic + 4, kMagic)) {
    throw bad("bad magic (not a GTR1 tile trace)");
  }
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!is.good()) throw bad("truncated header");
  // No reserve(count): the count is untrusted until its tiles are read.
  std::vector<TileLoad> tiles;
  for (std::uint64_t i = 0; i < count; ++i) {
    TileLoad t;
    is.read(reinterpret_cast<char*>(&t.pairs), sizeof(t.pairs));
    is.read(reinterpret_cast<char*>(&t.fill_bytes), sizeof(t.fill_bytes));
    if (!is.good()) {
      throw bad("truncated at tile " + std::to_string(i) + " of " +
                std::to_string(count));
    }
    tiles.push_back(t);
  }
  return tiles;
}

TraceSummary summarize_trace(const std::vector<TileLoad>& tiles) {
  TraceSummary s;
  s.tiles = tiles.size();
  for (const TileLoad& t : tiles) {
    s.total_pairs += t.pairs;
    s.total_fill_bytes += t.fill_bytes;
    s.max_tile_pairs = std::max(s.max_tile_pairs, t.pairs);
  }
  s.mean_tile_pairs =
      tiles.empty() ? 0.0
                    : static_cast<double>(s.total_pairs) /
                          static_cast<double>(tiles.size());
  return s;
}

DesignTimelineResult replay_trace(const std::vector<TileLoad>& tiles,
                                  const RasterizerConfig& config) {
  return run_design_timeline(tiles, config);
}

}  // namespace gaurast::core
