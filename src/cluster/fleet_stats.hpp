// cluster fleet stats — merging per-shard `gaurast-serve-stats/v3` reports
// into one `gaurast-fleet-stats/v2` document, the stats encoding the router
// serves on both the wire (kStatsResponse) and HTTP (/stats).
//
// Layout:
//
//   {"schema":"gaurast-fleet-stats/v2",
//    "shards_total":N,"shards_alive":A,
//    "fleet":{submitted, completed, rejected, scene_cache_hits,
//             scene_cache_misses, scene_evictions, scene_rejected,
//             scene_resident_bytes, scene_resident_count},
//                                                     <- summed over shards
//    "router":{routed_ok, overloaded, server_errors, shed, failovers,
//              fleet_unavailable, deadline_exceeded, retries,
//              latency_* (router-observed, ms),
//              route_overhead_* (router latency minus the shard-reported
//              per-request latency_ms, ms)},
//    "shards":[{"host","port","state","deaths" (transitions into dead),
//               "stats":<shard JSON or null>}, ...]}
//
// v2 replaced each shard's circuit-breaker pair (open flag, trip count)
// with "deaths": the breaker folded into the dead state.
//
// Latency is deliberately reported per shard (each entry embeds the
// shard's own gaurast-serve-stats snapshot verbatim) rather than
// averaged across the fleet: shard queue depths differ and a fleet-wide
// mean would hide the straggler. The one fleet-wide latency figure that is
// meaningful is the route overhead the router itself adds, measured per
// forwarded request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/host_db.hpp"

namespace gaurast::cluster {

/// Schema tag of the merged fleet report.
inline constexpr const char* kFleetStatsSchema = "gaurast-fleet-stats/v2";

/// One shard's contribution: its registry snapshot plus the serve-stats
/// JSON fetched from it (nullopt when the shard was dead or the fetch
/// failed — the entry then carries "stats":null).
struct ShardStatsEntry {
  ShardSnapshot shard;
  std::optional<std::string> stats_json;
};

/// The router's own counters and request-level samples, snapshotted for
/// one report.
struct RouterStatsSnapshot {
  std::uint64_t routed_ok = 0;
  std::uint64_t overloaded = 0;      ///< shard kOverloaded passed through
  std::uint64_t server_errors = 0;   ///< shard kServerError passed through
  std::uint64_t shed = 0;            ///< router-level queue-full sheds
  std::uint64_t failovers = 0;       ///< forwards retried on another shard
  std::uint64_t fleet_unavailable = 0;
  /// Requests answered kDeadlineExceeded — expired at the router (any
  /// hand-off point) or shed by a shard against the derated budget.
  std::uint64_t deadline_exceeded = 0;
  /// RetryPolicy-approved retries performed (every re-route after a failed
  /// forward; a subset also counts in `failovers` once re-enqueued).
  std::uint64_t retries = 0;
  /// Router-observed end-to-end latency per forwarded request (ms); the
  /// router keeps the last 65,536 (SampleWindow, common/stats.hpp).
  std::vector<double> latency_ms;
  /// Route overhead per kOk forward: router-observed round trip minus the
  /// shard-reported latency_ms (ms, clamped at 0); also the last 65,536.
  std::vector<double> route_overhead_ms;
};

/// First occurrence of `"key":<number>` in a flat JSON object — sufficient
/// for gaurast-serve-stats documents, whose stats are one flat object.
/// nullopt when absent or non-numeric.
std::optional<double> extract_json_number(const std::string& json,
                                          const std::string& key);

/// Builds the merged gaurast-fleet-stats/v2 document.
std::string merge_fleet_stats(const std::vector<ShardStatsEntry>& shards,
                              const RouterStatsSnapshot& router);

}  // namespace gaurast::cluster
