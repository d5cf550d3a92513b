#include "scene/store.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "scene/generator.hpp"
#include "scene/ply_io.hpp"

namespace gaurast::scene {

namespace {

constexpr std::uint64_t kDefaultSyntheticSeed = 42;

/// Parses an unsigned decimal that consumes `text` exactly.
std::uint64_t parse_u64(const std::string& text, const std::string& key) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    throw Error("scene key '" + key + "': expected an unsigned number, got '" +
                text + "'");
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    throw Error("scene key '" + key + "': expected an unsigned number, got '" +
                text + "'");
  }
  return static_cast<std::uint64_t>(value);
}

GeneratorParams generator_params_for(const SceneKey& key) {
  GeneratorParams params;
  params.gaussian_count = key.count;
  params.seed = key.seed;
  return params;
}

}  // namespace

std::string SceneKey::canonical() const {
  if (kind == Kind::kPly) return "ply:" + path;
  return synthetic_scene_key(count, seed);
}

std::string synthetic_scene_key(std::uint64_t count, std::uint64_t seed) {
  return "synthetic:" + std::to_string(count) + "@" + std::to_string(seed);
}

SceneKey parse_scene_key(const std::string& key) {
  const std::size_t colon = key.find(':');
  if (colon == std::string::npos) {
    throw Error("scene key '" + key +
                "' is not canonical (expected synthetic:<count>[@<seed>] "
                "or ply:<path-or-name>)");
  }
  const std::string kind = key.substr(0, colon);
  const std::string rest = key.substr(colon + 1);
  SceneKey parsed;
  if (kind == "synthetic") {
    parsed.kind = SceneKey::Kind::kSynthetic;
    const std::size_t at = rest.find('@');
    parsed.count = parse_u64(rest.substr(0, at), key);
    parsed.seed = at == std::string::npos
                      ? kDefaultSyntheticSeed
                      : parse_u64(rest.substr(at + 1), key);
    if (parsed.count == 0) {
      throw Error("scene key '" + key + "': synthetic count must be >= 1");
    }
    return parsed;
  }
  if (kind == "ply") {
    if (rest.empty()) {
      throw Error("scene key '" + key + "': ply key needs a path or name");
    }
    parsed.kind = SceneKey::Kind::kPly;
    parsed.path = rest;
    return parsed;
  }
  throw Error("scene key '" + key + "': unknown kind '" + kind +
              "' (expected synthetic: or ply:)");
}

QuantizedScene SceneSource::resolve_quantized(const std::string& key,
                                              std::size_t max_bytes) const {
  QuantizedScene q = quantize(resolve(key));
  if (max_bytes > 0 && q.resident_bytes() > max_bytes) {
    throw SceneOverBudgetError(
        "scene '" + key + "' needs " + std::to_string(q.resident_bytes()) +
        " quantized bytes, over the " + std::to_string(max_bytes) +
        "-byte admission limit");
  }
  return q;
}

GaussianScene SyntheticSource::resolve(const std::string& key) const {
  const SceneKey parsed = parse_scene_key(key);
  if (parsed.kind != SceneKey::Kind::kSynthetic) {
    throw Error("scene key '" + key +
                "' is not synthetic (this source only generates)");
  }
  return generate_scene(generator_params_for(parsed));
}

QuantizedScene SyntheticSource::resolve_quantized(
    const std::string& key, std::size_t max_bytes) const {
  const SceneKey parsed = parse_scene_key(key);
  if (parsed.kind != SceneKey::Kind::kSynthetic) {
    throw Error("scene key '" + key +
                "' is not synthetic (this source only generates)");
  }
  // The key names the splat count, so the quantized footprint is known
  // before generating a single Gaussian — reject up front.
  const GeneratorParams params = generator_params_for(parsed);
  const std::size_t bytes =
      quantized_bytes_per_splat(params.sh_degree) *
      static_cast<std::size_t>(params.gaussian_count);
  if (max_bytes > 0 && bytes > max_bytes) {
    throw SceneOverBudgetError(
        "scene '" + key + "' needs " + std::to_string(bytes) +
        " quantized bytes, over the " + std::to_string(max_bytes) +
        "-byte admission limit");
  }
  return SceneSource::resolve_quantized(key, max_bytes);
}

PlyDirectorySource::PlyDirectorySource(std::string directory)
    : directory_(std::move(directory)) {}

std::string PlyDirectorySource::resolve_path(const SceneKey& key) const {
  std::string path = key.path;
  // A bare name resolves inside the directory; anything with a separator
  // is taken as a filesystem path.
  if (path.find('/') == std::string::npos && !directory_.empty()) {
    path = directory_ + "/" + path;
  }
  const std::string ext = ".ply";
  if (path.size() < ext.size() ||
      path.compare(path.size() - ext.size(), ext.size(), ext) != 0) {
    path += ext;
  }
  return path;
}

GaussianScene PlyDirectorySource::resolve(const std::string& key) const {
  const SceneKey parsed = parse_scene_key(key);
  if (parsed.kind == SceneKey::Kind::kSynthetic) {
    return synthetic_.resolve(key);
  }
  return load_ply(resolve_path(parsed));
}

QuantizedScene PlyDirectorySource::resolve_quantized(
    const std::string& key, std::size_t max_bytes) const {
  const SceneKey parsed = parse_scene_key(key);
  if (parsed.kind == SceneKey::Kind::kSynthetic) {
    return synthetic_.resolve_quantized(key, max_bytes);
  }
  return load_ply_quantized(resolve_path(parsed), max_bytes);
}

SceneStore::SceneStore(SceneStoreConfig config) : config_(std::move(config)) {
  GAURAST_CHECK_MSG(config_.source != nullptr,
                    "SceneStore needs a SceneSource");
}

std::size_t SceneStore::per_scene_cap() const {
  if (config_.max_scene_bytes == 0) return config_.max_bytes;
  if (config_.max_bytes == 0) return config_.max_scene_bytes;
  return std::min(config_.max_scene_bytes, config_.max_bytes);
}

void SceneStore::finish_inflight(const std::string& key, bool rejected) {
  common::MutexLock lock(mutex_);
  inflight_.erase(key);
  if (rejected) ++rejected_;
  inflight_cv_.notify_all();
}

std::shared_ptr<const GaussianScene> SceneStore::acquire(
    const std::string& key) {
  // Phase 1: resolve a live hit, or claim the (single-flight) load.
  // `resident` carries the still-resident quantized payload of a demoted
  // entry, distinguishing a re-inflate (hit) from a source load (miss).
  std::shared_ptr<const QuantizedScene> resident;
  {
    common::MutexLock lock(mutex_);
    for (;;) {
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (auto live = it->second.working.lock()) {
          ++hits_;
          it->second.lru_tick = ++lru_clock_;
          return live;
        }
      }
      if (inflight_.count(key) > 0) {
        // Another thread is loading this key; wait and re-check (it may
        // have succeeded, failed, or been evicted again).
        inflight_cv_.wait(lock);
        continue;
      }
      inflight_.insert(key);
      if (it != entries_.end()) resident = it->second.quantized;
      break;
    }
  }

  // Phase 2, unlocked: resolve through the source (miss) or re-inflate
  // from the resident quantized bytes (cold hit). Other keys proceed in
  // parallel; failures release the claim so waiters can retry and surface
  // their own error.
  std::shared_ptr<const QuantizedScene> quantized = resident;
  GaussianScene working;
  try {
    if (!quantized) {
      quantized = std::make_shared<const QuantizedScene>(
          config_.source->resolve_quantized(key, per_scene_cap()));
    }
    working = dequantize(*quantized);
  } catch (const SceneOverBudgetError&) {
    finish_inflight(key, /*rejected=*/true);
    throw;
  } catch (...) {
    finish_inflight(key, /*rejected=*/false);
    throw;
  }

  // Phase 3: publish the entry and working copy, then fit the budget.
  auto ptr = std::make_shared<const GaussianScene>(std::move(working));
  common::MutexLock lock(mutex_);
  inflight_.erase(key);
  inflight_cv_.notify_all();
  Entry& entry = entries_[key];
  if (resident) {
    ++hits_;  // payload never left the store; only the float copy did
  } else {
    ++misses_;
    entry.quantized = quantized;
    entry.quantized_bytes = quantized->resident_bytes();
    resident_bytes_ += entry.quantized_bytes;
    peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  }
  entry.working = ptr;
  entry.lru_tick = ++lru_clock_;
  // `ptr` pins this key, so eviction can only take other entries.
  evict_to_budget();
  return ptr;
}

void SceneStore::evict_to_budget() {
  if (config_.max_bytes == 0) return;
  while (resident_bytes_ > config_.max_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.working.expired()) continue;  // pinned by a render
      if (inflight_.count(it->first) > 0) continue;  // mid-(re)load
      if (victim == entries_.end() ||
          it->second.lru_tick < victim->second.lru_tick) {
        victim = it;
      }
    }
    // Every entry pinned or loading: residency transiently exceeds the
    // budget rather than freeing a scene mid-frame.
    if (victim == entries_.end()) return;
    resident_bytes_ -= victim->second.quantized_bytes;
    ++evictions_;
    entries_.erase(victim);
  }
}

void SceneStore::trim() {
  common::MutexLock lock(mutex_);
  evict_to_budget();
}

SceneStoreStats SceneStore::stats() const {
  common::MutexLock lock(mutex_);
  SceneStoreStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.rejected = rejected_;
  s.resident_bytes = resident_bytes_;
  s.peak_resident_bytes = peak_resident_bytes_;
  s.resident_scenes = entries_.size();
  return s;
}

std::size_t SceneStore::resident_scenes() const {
  common::MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace gaurast::scene
