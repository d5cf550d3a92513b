#include "cluster/fleet_stats.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "common/stats.hpp"

namespace gaurast::cluster {

namespace {

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
  double submitted = 0, completed = 0, rejected = 0;
  double cache_hits = 0, cache_misses = 0;
  double scene_evictions = 0, scene_rejected = 0;
  double scene_resident_bytes = 0, scene_resident_count = 0;
  std::size_t alive = 0;
  for (const ShardStatsEntry& entry : shards) {
    if (entry.shard.state != ShardState::kDead) ++alive;
    if (!entry.stats_json) continue;
    const std::string& json = *entry.stats_json;
    submitted += extract_json_number(json, "submitted").value_or(0.0);
    completed += extract_json_number(json, "completed").value_or(0.0);
    rejected += extract_json_number(json, "rejected").value_or(0.0);
    cache_hits += extract_json_number(json, "scene_cache_hits").value_or(0.0);
    cache_misses +=
        extract_json_number(json, "scene_cache_misses").value_or(0.0);
    scene_evictions +=
        extract_json_number(json, "scene_evictions").value_or(0.0);
    scene_rejected +=
        extract_json_number(json, "scene_rejected").value_or(0.0);
    scene_resident_bytes +=
        extract_json_number(json, "scene_resident_bytes").value_or(0.0);
    scene_resident_count +=
        extract_json_number(json, "scene_resident_count").value_or(0.0);
  }

  std::ostringstream os;
  os << "{\"schema\":\"" << kFleetStatsSchema << "\""
     << ",\"shards_total\":" << shards.size() << ",\"shards_alive\":" << alive
     << ",\"fleet\":{\"submitted\":" << submitted
     << ",\"completed\":" << completed << ",\"rejected\":" << rejected
     << ",\"scene_cache_hits\":" << cache_hits
     << ",\"scene_cache_misses\":" << cache_misses
     << ",\"scene_evictions\":" << scene_evictions
     << ",\"scene_rejected\":" << scene_rejected
     << ",\"scene_resident_bytes\":" << scene_resident_bytes
     << ",\"scene_resident_count\":" << scene_resident_count << "}"
     << ",\"router\":{\"routed_ok\":" << router.routed_ok
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
