#include "cluster/fleet_stats.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "common/stats.hpp"

namespace gaurast::cluster {

namespace {

/// The shard counters the fleet document sums, in output order.
constexpr std::array<const char*, 9> kSummedCounters = {
    "submitted",        "completed",          "rejected",
    "scene_cache_hits", "scene_cache_misses", "scene_evictions",
    "scene_rejected",   "scene_resident_bytes", "scene_resident_count"};

/// One shard counter as an exact integer; 0 when absent, negative or out of
/// range, so a malformed shard document adds nothing.
std::uint64_t extract_json_count(const std::string& json,
                                 const std::string& key) {
  const double value = extract_json_number(json, key).value_or(0.0);
  return value >= 0.0 && value < 0x1p64 ? static_cast<std::uint64_t>(value)
                                        : 0;
}

/// Emits mean/p50/p95/max for one sample set under `prefix`.
void emit_latency_fields(std::ostringstream& os, const std::string& prefix,
                         std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const double mean =
      samples.empty() ? 0.0
                      : std::accumulate(samples.begin(), samples.end(), 0.0) /
                            static_cast<double>(samples.size());
  os << ",\"" << prefix << "_mean_ms\":" << mean << ",\"" << prefix
     << "_p50_ms\":" << percentile_sorted(samples, 0.50) << ",\"" << prefix
     << "_p95_ms\":" << percentile_sorted(samples, 0.95) << ",\"" << prefix
     << "_max_ms\":" << (samples.empty() ? 0.0 : samples.back());
}

}  // namespace

std::optional<double> extract_json_number(const std::string& json,
                                          const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

std::string merge_fleet_stats(const std::vector<ShardStatsEntry>& shards,
                              const RouterStatsSnapshot& router) {
  // Summed totals: a shard whose stats fetch failed contributes nothing —
  // the merged totals are a floor, and its "stats":null entry says why.
  // Integers, so a total past 1e6 prints every digit.
  std::array<std::uint64_t, kSummedCounters.size()> totals{};
  std::size_t alive = 0;
  for (const ShardStatsEntry& entry : shards) {
    if (entry.shard.state != ShardState::kDead) ++alive;
    if (!entry.stats_json) continue;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i] += extract_json_count(*entry.stats_json, kSummedCounters[i]);
    }
  }

  std::ostringstream os;
  os << "{\"schema\":\"" << kFleetStatsSchema << "\""
     << ",\"shards_total\":" << shards.size() << ",\"shards_alive\":" << alive
     << ",\"fleet\":{";
  for (std::size_t i = 0; i < totals.size(); ++i) {
    os << (i ? "," : "") << "\"" << kSummedCounters[i] << "\":" << totals[i];
  }
  os << "},\"router\":{\"routed_ok\":" << router.routed_ok
     << ",\"overloaded\":" << router.overloaded
     << ",\"server_errors\":" << router.server_errors
     << ",\"shed\":" << router.shed << ",\"failovers\":" << router.failovers
     << ",\"fleet_unavailable\":" << router.fleet_unavailable
     << ",\"deadline_exceeded\":" << router.deadline_exceeded
     << ",\"retries\":" << router.retries;
  emit_latency_fields(os, "latency", router.latency_ms);
  emit_latency_fields(os, "route_overhead", router.route_overhead_ms);
  os << "},\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardStatsEntry& entry = shards[i];
    os << (i ? "," : "") << "{\"host\":\"" << entry.shard.id.host
       << "\",\"port\":" << entry.shard.id.port << ",\"state\":\""
       << to_string(entry.shard.state)
       << "\",\"deaths\":" << entry.shard.deaths << ",\"stats\":";
    if (entry.stats_json) {
      os << *entry.stats_json;
    } else {
      os << "null";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace gaurast::cluster
