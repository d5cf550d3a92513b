// scene::SceneStore — the byte-budgeted scene cache behind every serving
// surface, plus the canonical scene addressing it resolves.
//
// Addressing: one key syntax, parsed here and nowhere else —
//
//   synthetic:<count>[@<seed>]   generator scene (seed defaults to 42)
//   ply:<path-or-name>           PLY checkpoint, resolved by the source
//
// `render`, `serve`, `request`, `route`, and the wire RenderRequest all
// speak these keys; a SceneSource turns one into a scene.
//
// The store holds scenes at rest in quantized form (scene/quantized) and
// dequantizes a float working copy on demand. Accounted bytes = quantized
// payload; the transient float copies are the render working set and are
// not charged. Guarantees:
//
//   - Strict LRU eviction over accounted bytes whenever residency exceeds
//     config.max_bytes (0 = unbounded).
//   - Single-flight loading: concurrent acquire() calls for one key load
//     once; other keys load concurrently.
//   - Pin-while-rendering: a ScenePtr returned by acquire() pins its entry
//     — eviction skips entries whose working copy is still referenced, so
//     a scene is never freed mid-frame (residency may transiently exceed
//     the budget when every entry is pinned).
//   - Admission control: a scene whose quantized payload would exceed
//     config.max_scene_bytes (or the whole budget) is rejected with a
//     gaurast::Error before it is materialized where the source allows
//     (streaming PLY ingest checks the header's vertex count; the
//     synthetic source checks the key's count).
//
// dequantize() is pure in the quantized bytes, so an evict-and-reload
// cycle reproduces bit-identical frames — the store trades memory for
// reload latency, never for output fidelity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "scene/gaussian.hpp"
#include "scene/quantized.hpp"

namespace gaurast::scene {

/// A parsed canonical scene key.
struct SceneKey {
  enum class Kind { kSynthetic, kPly };
  Kind kind = Kind::kSynthetic;
  std::uint64_t count = 0;  ///< synthetic: generator gaussian_count
  std::uint64_t seed = 0;   ///< synthetic: generator seed
  std::string path;         ///< ply: path or directory-relative name

  std::string canonical() const;
};

/// Parses the canonical syntax above; throws gaurast::Error on anything
/// else (including the retired "synthetic-<n>-s<seed>" spelling).
SceneKey parse_scene_key(const std::string& key);

/// The canonical spelling of a synthetic scene: "synthetic:<count>@<seed>".
std::string synthetic_scene_key(std::uint64_t count, std::uint64_t seed);

/// Resolves canonical scene keys into scenes. Implementations must be
/// thread-safe for const calls; the store invokes them outside its lock.
class SceneSource {
 public:
  virtual ~SceneSource() = default;

  /// Full-precision resolve (the CLI `render` path and tests).
  /// Throws gaurast::Error for keys the source cannot serve.
  virtual GaussianScene resolve(const std::string& key) const = 0;

  /// Resolve straight into quantized form. `max_bytes` > 0 is an admission
  /// limit: implementations that know the size up front (streaming PLY,
  /// synthetic counts) throw before materializing an over-budget scene.
  /// The default quantizes resolve() and checks afterwards.
  virtual QuantizedScene resolve_quantized(const std::string& key,
                                           std::size_t max_bytes) const;
};

/// Generator-backed source for "synthetic:<n>@<seed>" keys.
class SyntheticSource : public SceneSource {
 public:
  GaussianScene resolve(const std::string& key) const override;
  QuantizedScene resolve_quantized(const std::string& key,
                                   std::size_t max_bytes) const override;
};

/// Serves "ply:<name-or-path>" from a directory (a bare name resolves to
/// <directory>/<name>[.ply]; an absolute or relative path is used as-is)
/// via chunked streaming ingest, and delegates "synthetic:" keys to an
/// embedded SyntheticSource so one source covers both key kinds.
class PlyDirectorySource : public SceneSource {
 public:
  explicit PlyDirectorySource(std::string directory);

  GaussianScene resolve(const std::string& key) const override;
  QuantizedScene resolve_quantized(const std::string& key,
                                   std::size_t max_bytes) const override;

 private:
  std::string resolve_path(const SceneKey& key) const;

  std::string directory_;
  SyntheticSource synthetic_;
};

/// Adapts a callable to SceneSource — the test-double/injection path.
class FunctionSource : public SceneSource {
 public:
  using Fn = std::function<GaussianScene(const std::string& key)>;
  explicit FunctionSource(Fn fn) : fn_(std::move(fn)) {}

  GaussianScene resolve(const std::string& key) const override {
    return fn_(key);
  }

 private:
  Fn fn_;
};

struct SceneStoreConfig {
  /// Total accounted-byte budget; 0 = unbounded (no eviction).
  std::size_t max_bytes = 0;
  /// Per-scene admission cap on the quantized payload; 0 = none. A scene
  /// over this (or over max_bytes) is rejected with gaurast::Error.
  std::size_t max_scene_bytes = 0;
  /// Resolves keys on miss. Required.
  std::shared_ptr<const SceneSource> source;
};

/// Counter snapshot; monotonic except the residency gauges.
struct SceneStoreStats {
  std::uint64_t hits = 0;        ///< acquire() found the key resident
  std::uint64_t misses = 0;      ///< acquire() had to load via the source
  std::uint64_t evictions = 0;   ///< entries evicted to fit the budget
  std::uint64_t rejected = 0;    ///< admission refusals (over max bytes)
  std::uint64_t resident_bytes = 0;
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t resident_scenes = 0;
};

class SceneStore {
 public:
  explicit SceneStore(SceneStoreConfig config);

  SceneStore(const SceneStore&) = delete;
  SceneStore& operator=(const SceneStore&) = delete;

  /// Returns the working copy for `key`, loading (single-flight) or
  /// re-dequantizing as needed. The returned pointer pins the entry
  /// against eviction for its lifetime. Throws gaurast::Error on
  /// resolution failure or admission rejection.
  std::shared_ptr<const GaussianScene> acquire(const std::string& key)
      GAURAST_EXCLUDES(mutex_);

  /// Re-applies the eviction policy outside an acquire: drops evictable
  /// entries until resident bytes fit the budget again. Eviction otherwise
  /// only runs when an acquire publishes, so residency that transiently
  /// exceeded the budget while every entry was render-pinned would stay
  /// over it after the pins release. The service calls this after drain().
  void trim() GAURAST_EXCLUDES(mutex_);

  SceneStoreStats stats() const GAURAST_EXCLUDES(mutex_);
  std::size_t resident_scenes() const GAURAST_EXCLUDES(mutex_);

  const SceneStoreConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const QuantizedScene> quantized;
    std::size_t quantized_bytes = 0;
    /// Live working copy; expired = demoted to quantized-only rest state.
    /// A live pointer pins the entry against eviction.
    std::weak_ptr<const GaussianScene> working;
    std::uint64_t lru_tick = 0;
  };

  /// Erases the single-flight marker for `key` and wakes waiters;
  /// `rejected` ticks the admission-refusal counter.
  void finish_inflight(const std::string& key, bool rejected)
      GAURAST_EXCLUDES(mutex_);
  void evict_to_budget() GAURAST_REQUIRES(mutex_);
  /// The per-scene admission cap: the tighter of max_scene_bytes and
  /// max_bytes (0 = no cap).
  std::size_t per_scene_cap() const;

  SceneStoreConfig config_;

  mutable common::Mutex mutex_;
  common::CondVar inflight_cv_;
  std::map<std::string, Entry> entries_ GAURAST_GUARDED_BY(mutex_);
  /// Keys with a load or re-dequantize in progress (single-flight);
  /// eviction skips them.
  std::set<std::string> inflight_ GAURAST_GUARDED_BY(mutex_);
  std::uint64_t lru_clock_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::size_t resident_bytes_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::size_t peak_resident_bytes_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ GAURAST_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ GAURAST_GUARDED_BY(mutex_) = 0;
};

}  // namespace gaurast::scene
