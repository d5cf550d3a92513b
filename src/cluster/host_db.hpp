// cluster::HostDb — the shard registry of a render fleet: a static
// host:port list plus a per-shard alive/suspect/dead health state machine
// and the rendezvous (HRW) hash that gives every scene a deterministic
// owner among the shards that are still up.
//
// Health inputs are outcome reports: the router's forwarders report
// per-request successes/failures and the prober reports periodic HTTP
// /healthz results, all through the same report_success/report_failure
// pair. One failure demotes alive -> suspect (still routable — a single
// timeout must not remap every scene the shard owns); consecutive failures
// reaching HostDbConfig::dead_after_failures demote to dead, which removes
// the shard from routing.
//
// Re-admission: a dead shard comes back on the first success reported at
// least HostDbConfig::readmit_after_ms after it died (the prober keeps
// probing, so its first post-cooldown success re-admits the shard).
// Successes inside the cooldown are ignored, so a flapping shard cannot
// thrash the routing map once per flap, and failures inside it do not
// restart it. The default cooldown of 0 re-admits on the first success.
//
// Routing: hrw_order() ranks ALL shards for a scene key by rendezvous
// weight — a pure function of (scene key, shard label), independent of
// health — and route() walks that ranking skipping dead shards. So the
// owner of a key is stable while its shard lives, moves deterministically
// to the key's next-ranked shard when it dies, and moves back on recovery;
// keys owned by other shards never remap (the rendezvous property).
//
// Thread-safe: health state sits behind one mutex; the shard list itself is
// immutable after construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gaurast::cluster {

struct ShardId {
  std::string host;
  int port = 0;

  /// "host:port" — the stable identity HRW weights hash.
  std::string label() const;
  /// Parses "host:port"; throws gaurast::Error on malformed specs.
  static ShardId parse(const std::string& spec);
};

enum class ShardState : std::uint8_t {
  kAlive = 0,
  /// One recent failure: still routable, but one more failure kills it.
  kSuspect = 1,
  /// Out of routing until a probe or request succeeds against it.
  kDead = 2,
};

const char* to_string(ShardState state);

struct HostDbConfig {
  /// Consecutive failures at which a shard is declared dead. The first
  /// failure always demotes to suspect.
  int dead_after_failures = 2;
  /// Cooldown after a death: successes earlier than this are ignored, and
  /// the first one after it re-admits the shard. 0 (the default)
  /// re-admits on the first success, because a longer cooldown delays a
  /// recovered shard by up to this long.
  int readmit_after_ms = 0;
};

struct ShardSnapshot {
  ShardId id;
  ShardState state = ShardState::kAlive;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  int consecutive_failures = 0;
  std::uint64_t deaths = 0;  ///< transitions into dead
};

class HostDb {
 public:
  /// At least one shard; shards start alive (optimistic — the first probe
  /// or request corrects that within one health interval).
  explicit HostDb(std::vector<ShardId> shards, HostDbConfig config = {});

  std::size_t size() const { return shards_.size(); }
  /// Immutable after construction — safe without the lock.
  const ShardId& shard(std::size_t index) const { return shards_[index]; }

  ShardState state(std::size_t index) const GAURAST_EXCLUDES(mutex_);
  std::vector<ShardSnapshot> snapshot() const GAURAST_EXCLUDES(mutex_);
  /// Shards currently routable (not dead).
  std::size_t alive_count() const GAURAST_EXCLUDES(mutex_);

  void report_success(std::size_t index) GAURAST_EXCLUDES(mutex_);
  void report_failure(std::size_t index) GAURAST_EXCLUDES(mutex_);

  /// Rendezvous ranking of ALL shard indices for this scene key, best
  /// first. Deterministic across processes and platforms (FNV-1a +
  /// splitmix64 finalizer, never std::hash) and independent of health —
  /// failover order is a property of the key, not of the moment.
  std::vector<std::size_t> hrw_order(const std::string& scene_key) const;

  /// The shard that should serve `scene_key` right now: the first
  /// routable (non-dead) shard in hrw_order not listed in
  /// `exclude` (the failover walk passes the shards it already tried).
  /// nullopt when the whole fleet is down.
  std::optional<std::size_t> route(const std::string& scene_key,
                                   const std::set<std::size_t>& exclude = {})
      const GAURAST_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Health {
    ShardState state = ShardState::kAlive;
    int consecutive_failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    Clock::time_point died_at{};  ///< valid while dead
    std::uint64_t deaths = 0;
  };

  const std::vector<ShardId> shards_;
  const HostDbConfig config_;

  mutable common::Mutex mutex_;
  std::vector<Health> health_ GAURAST_GUARDED_BY(mutex_);
};

}  // namespace gaurast::cluster
