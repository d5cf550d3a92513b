#include "cluster/host_db.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gaurast::cluster {

namespace {

/// 64-bit FNV-1a: stable across platforms and compilers, unlike std::hash.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer: FNV-1a's low bits avalanche poorly, and HRW
/// ranking compares whole weights, so mix thoroughly.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string ShardId::label() const {
  return host + ":" + std::to_string(port);
}

ShardId ShardId::parse(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw Error("shard spec '" + spec + "' is not host:port");
  }
  int port = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9' || port > 65535) {
      throw Error("shard spec '" + spec + "' has an invalid port");
    }
    port = port * 10 + (c - '0');
  }
  if (port < 1 || port > 65535) {
    throw Error("shard spec '" + spec + "' has an invalid port");
  }
  return ShardId{spec.substr(0, colon), port};
}

const char* to_string(ShardState state) {
  switch (state) {
    case ShardState::kAlive: return "alive";
    case ShardState::kSuspect: return "suspect";
    case ShardState::kDead: return "dead";
  }
  return "?";
}

HostDb::HostDb(std::vector<ShardId> shards, HostDbConfig config)
    : shards_(std::move(shards)), config_(config) {
  GAURAST_CHECK_MSG(!shards_.empty(), "a fleet needs at least one shard");
  GAURAST_CHECK(config_.dead_after_failures >= 1);
  GAURAST_CHECK(config_.readmit_after_ms >= 0);
  common::MutexLock lock(mutex_);
  health_.resize(shards_.size());
}

ShardState HostDb::state(std::size_t index) const {
  common::MutexLock lock(mutex_);
  return health_[index].state;
}

std::vector<ShardSnapshot> HostDb::snapshot() const {
  common::MutexLock lock(mutex_);
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Health& h = health_[i];
    out.push_back(ShardSnapshot{shards_[i], h.state, h.successes, h.failures,
                                h.consecutive_failures, h.deaths});
  }
  return out;
}

std::size_t HostDb::alive_count() const {
  common::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const Health& h : health_) {
    if (h.state != ShardState::kDead) ++n;
  }
  return n;
}

void HostDb::report_success(std::size_t index) {
  common::MutexLock lock(mutex_);
  Health& h = health_[index];
  ++h.successes;
  // A success inside the cooldown is ignored: a flapping shard sits out the
  // full window. The first one after it re-admits the shard.
  if (h.state == ShardState::kDead &&
      Clock::now() <
          h.died_at + std::chrono::milliseconds(config_.readmit_after_ms)) {
    return;
  }
  h.consecutive_failures = 0;
  h.state = ShardState::kAlive;
}

void HostDb::report_failure(std::size_t index) {
  common::MutexLock lock(mutex_);
  Health& h = health_[index];
  ++h.failures;
  ++h.consecutive_failures;
  // Failures of a dead shard do not re-stamp died_at: the cooldown
  // measures from the death, so a shard that keeps failing while dead can
  // still recover on the first post-cooldown success.
  if (h.state == ShardState::kDead) return;
  if (h.consecutive_failures < config_.dead_after_failures) {
    h.state = ShardState::kSuspect;
    return;
  }
  h.state = ShardState::kDead;
  h.died_at = Clock::now();
  ++h.deaths;
}

std::vector<std::size_t> HostDb::hrw_order(
    const std::string& scene_key) const {
  const std::uint64_t key_hash = fnv1a64(scene_key);
  std::vector<std::pair<std::uint64_t, std::size_t>> ranked;
  ranked.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t weight = mix64(key_hash ^ fnv1a64(shards_[i].label()));
    ranked.emplace_back(weight, i);
  }
  // Highest weight first; index breaks (astronomically unlikely) ties so
  // the order is a total one.
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::size_t> order;
  order.reserve(ranked.size());
  for (const auto& [weight, index] : ranked) order.push_back(index);
  return order;
}

std::optional<std::size_t> HostDb::route(
    const std::string& scene_key,
    const std::set<std::size_t>& exclude) const {
  const std::vector<std::size_t> order = hrw_order(scene_key);
  common::MutexLock lock(mutex_);
  for (const std::size_t index : order) {
    if (exclude.count(index)) continue;
    if (health_[index].state == ShardState::kDead) continue;
    return index;
  }
  return std::nullopt;
}

}  // namespace gaurast::cluster
