// Tests for the gaurast::cluster subsystem: shard-spec parsing, the
// alive/suspect/dead health state machine and its re-admission cooldown,
// rendezvous-hash determinism and
// remap-on-death/recovery, the RetryPolicy budget/backoff contract, the
// Spawner's RestartBackoff schedule, the fleet-stats merge, and the Router
// end to end — routed-vs-direct bit-identity on the canonical 20k/320x240
// frame, failover while a shard is killed under load, OVERLOADED
// passthrough, the explicit FLEET_UNAVAILABLE answer when every shard is
// down (never a hang), and the merged stats endpoints.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fleet_stats.hpp"
#include "cluster/host_db.hpp"
#include "cluster/retry_policy.hpp"
#include "cluster/router.hpp"
#include "cluster/spawner.hpp"
#include "common/error.hpp"
#include "engine/backends.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"
#include "scene/generator.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::cluster;

// ---------------------------------------------------------------------------
// ShardId / HostDb
// ---------------------------------------------------------------------------

TEST(ShardId, ParsesAndRejectsSpecs) {
  const ShardId id = ShardId::parse("render-3.fleet.local:9042");
  EXPECT_EQ(id.host, "render-3.fleet.local");
  EXPECT_EQ(id.port, 9042);
  EXPECT_EQ(id.label(), "render-3.fleet.local:9042");

  EXPECT_THROW(ShardId::parse("no-port"), Error);
  EXPECT_THROW(ShardId::parse(":9042"), Error);
  EXPECT_THROW(ShardId::parse("host:"), Error);
  EXPECT_THROW(ShardId::parse("host:0"), Error);
  EXPECT_THROW(ShardId::parse("host:65536"), Error);
  EXPECT_THROW(ShardId::parse("host:12ab"), Error);
}

std::vector<ShardId> make_shards(int n) {
  std::vector<ShardId> shards;
  for (int i = 0; i < n; ++i) {
    shards.push_back(ShardId{"10.0.0." + std::to_string(i + 1), 9000 + i});
  }
  return shards;
}

TEST(HostDb, HealthStateMachine) {
  HostDb db(make_shards(2));
  EXPECT_EQ(db.state(0), ShardState::kAlive);
  EXPECT_EQ(db.alive_count(), 2u);

  // First failure: suspect, still routable.
  db.report_failure(0);
  EXPECT_EQ(db.state(0), ShardState::kSuspect);
  EXPECT_EQ(db.alive_count(), 2u);

  // dead_after_failures (default 2) consecutive failures: dead.
  db.report_failure(0);
  EXPECT_EQ(db.state(0), ShardState::kDead);
  EXPECT_EQ(db.alive_count(), 1u);

  // Any success resurrects and resets the consecutive counter.
  db.report_success(0);
  EXPECT_EQ(db.state(0), ShardState::kAlive);
  db.report_failure(0);
  EXPECT_EQ(db.state(0), ShardState::kSuspect);

  const std::vector<ShardSnapshot> snap = db.snapshot();
  EXPECT_EQ(snap[0].successes, 1u);
  EXPECT_EQ(snap[0].failures, 3u);
  EXPECT_EQ(snap[0].consecutive_failures, 1);
  EXPECT_EQ(snap[1].failures, 0u);
}

TEST(HostDb, HrwOrderIsDeterministicAndTotal) {
  HostDb a(make_shards(5));
  HostDb b(make_shards(5));
  for (const char* key : {"synthetic-20000-s42", "synthetic-1000-s7", "x"}) {
    const std::vector<std::size_t> order = a.hrw_order(key);
    // Same ranking from an independently built registry: the hash depends
    // only on (key, shard label), never on process state or std::hash.
    EXPECT_EQ(order, b.hrw_order(key));
    // A total order over all shards.
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 5u);
  }
  // Different keys spread across shards: with 64 keys on 5 shards every
  // shard should own at least one (probability of a miss is negligible
  // unless the hash is broken).
  std::set<std::size_t> owners;
  for (int i = 0; i < 64; ++i) {
    owners.insert(a.hrw_order("synthetic-100-s" + std::to_string(i))[0]);
  }
  EXPECT_EQ(owners.size(), 5u);
}

TEST(HostDb, RouteRemapsOnDeathAndRecovery) {
  HostDb db(make_shards(4));
  const std::string key = "synthetic-20000-s42";
  const std::vector<std::size_t> order = db.hrw_order(key);
  ASSERT_EQ(db.route(key), order[0]);

  // Find a key owned by a different shard: its route must not move when
  // order[0] dies (the rendezvous property).
  std::string other_key;
  for (int s = 0; other_key.empty(); ++s) {
    const std::string candidate = "synthetic-500-s" + std::to_string(s);
    if (db.hrw_order(candidate)[0] != order[0]) other_key = candidate;
  }
  const std::size_t other_owner = *db.route(other_key);

  db.report_failure(order[0]);
  db.report_failure(order[0]);  // dead
  EXPECT_EQ(db.route(key), order[1]);
  EXPECT_EQ(db.route(other_key), other_owner) << "unrelated key remapped";

  db.report_success(order[0]);  // recovered
  EXPECT_EQ(db.route(key), order[0]);

  // The failover walk honors the exclusion set even for alive shards.
  EXPECT_EQ(db.route(key, {order[0]}), order[1]);
  EXPECT_EQ(db.route(key, {order[0], order[1]}), order[2]);
  EXPECT_EQ(db.route(key, {order[0], order[1], order[2], order[3]}),
            std::nullopt);
}

TEST(HostDb, BreakerTripsCoolsDownAndRecovers) {
  HostDbConfig config;
  config.dead_after_failures = 3;
  config.readmit_after_ms = 50;
  HostDb db(make_shards(3), config);
  const std::string key = "synthetic-20000-s42";
  const std::vector<std::size_t> order = db.hrw_order(key);
  const std::size_t owner = order[0];

  // Failures below the threshold leave the shard routable.
  db.report_failure(owner);
  db.report_failure(owner);
  EXPECT_EQ(db.state(owner), ShardState::kSuspect);
  EXPECT_EQ(db.route(key), owner);
  db.report_failure(owner);
  EXPECT_EQ(db.state(owner), ShardState::kDead);
  EXPECT_EQ(db.snapshot()[owner].deaths, 1u);
  EXPECT_EQ(db.route(key), order[1]) << "a dead shard must be excluded";

  // A success during the cooldown is ignored — a flapping shard cannot
  // thrash the routing map once per flap.
  db.report_success(owner);
  EXPECT_EQ(db.state(owner), ShardState::kDead);
  EXPECT_EQ(db.route(key), order[1]);
  // A failure late in the cooldown does not restart it: the cooldown still
  // ends readmit_after_ms after the death, not after this failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(35));
  db.report_failure(owner);
  EXPECT_EQ(db.snapshot()[owner].deaths, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // First post-cooldown success (in production: the prober's probe)
  // re-admits the shard, and ownership returns.
  db.report_success(owner);
  EXPECT_EQ(db.state(owner), ShardState::kAlive);
  EXPECT_EQ(db.route(key), owner);
  EXPECT_EQ(db.snapshot()[owner].deaths, 1u);

  // Each transition into dead counts once, however many failures follow.
  for (int i = 0; i < 5; ++i) db.report_failure(owner);
  EXPECT_EQ(db.state(owner), ShardState::kDead);
  EXPECT_EQ(db.snapshot()[owner].deaths, 2u);
}

TEST(HostDb, BreakerDisabledByDefault) {
  HostDb db(make_shards(2));
  for (int i = 0; i < 10; ++i) db.report_failure(0);
  EXPECT_EQ(db.state(0), ShardState::kDead);
  EXPECT_EQ(db.snapshot()[0].deaths, 1u);
  // Dead from failures, routable again on the first success — no cooldown.
  db.report_success(0);
  EXPECT_EQ(db.state(0), ShardState::kAlive);
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BudgetKindsAndJitterBounds) {
  const RetryPolicy policy;  // max_attempts=3, base=10ms, cap=250ms
  // Connect failures fail over immediately: retry with zero backoff.
  const RetryDecision connect = policy.on_failure(7, 1, FailureKind::kConnect);
  EXPECT_TRUE(connect.retry);
  EXPECT_EQ(connect.backoff_ms, 0);

  // Timeout/overload back off: jitter keeps the delay in [base/2, base]
  // for the first retry and doubles the base per further failure.
  const RetryDecision t1 = policy.on_failure(7, 1, FailureKind::kTimeout);
  EXPECT_TRUE(t1.retry);
  EXPECT_GE(t1.backoff_ms, 5);
  EXPECT_LE(t1.backoff_ms, 10);
  const RetryDecision t2 = policy.on_failure(7, 2, FailureKind::kOverloaded);
  EXPECT_TRUE(t2.retry);
  EXPECT_GE(t2.backoff_ms, 10);
  EXPECT_LE(t2.backoff_ms, 20);

  // The budget counts attempts, not kinds: the max_attempts-th failure is
  // terminal for every kind.
  for (const FailureKind kind :
       {FailureKind::kConnect, FailureKind::kTimeout,
        FailureKind::kOverloaded}) {
    EXPECT_FALSE(policy.on_failure(7, 3, kind).retry) << to_string(kind);
    EXPECT_FALSE(policy.on_failure(7, 4, kind).retry) << to_string(kind);
  }
}

TEST(RetryPolicy, BackoffCapsAndIsDeterministic) {
  RetryPolicyConfig config;
  config.max_attempts = 10;
  config.base_backoff_ms = 100;
  config.max_backoff_ms = 150;
  const RetryPolicy policy(config);
  // By failure 5 the doubled backoff is far past the cap; jitter keeps it
  // in [cap/2, cap].
  const RetryDecision capped = policy.on_failure(3, 5, FailureKind::kTimeout);
  EXPECT_GE(capped.backoff_ms, 75);
  EXPECT_LE(capped.backoff_ms, 150);

  // Pure function of (seed, request_id, failures): an independent policy
  // with the same config agrees delay for delay, and the policy itself
  // repeats (no hidden stream state).
  const RetryPolicy twin(config);
  for (std::uint64_t id : {1ull, 42ull, 9000ull}) {
    for (int failures = 1; failures <= 4; ++failures) {
      const int delay =
          policy.on_failure(id, failures, FailureKind::kTimeout).backoff_ms;
      EXPECT_EQ(delay,
                twin.on_failure(id, failures, FailureKind::kTimeout)
                    .backoff_ms);
      EXPECT_EQ(delay,
                policy.on_failure(id, failures, FailureKind::kTimeout)
                    .backoff_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// RestartBackoff
// ---------------------------------------------------------------------------

TEST(RestartBackoff, StreakDoublesCapsAndJittersInBounds) {
  RestartBackoffConfig config;
  config.base_ms = 100;
  config.max_ms = 400;
  RestartBackoff backoff(config);
  // Crash streak (uptime 0): 100 -> 200 -> 400 -> 400 (capped), each
  // jittered by ±25%.
  int expected = 100;
  for (int crash = 1; crash <= 4; ++crash) {
    const int delay = backoff.on_exit(0);
    EXPECT_EQ(backoff.streak(), crash);
    EXPECT_GE(delay, expected * 3 / 4) << "crash " << crash;
    EXPECT_LE(delay, expected * 5 / 4) << "crash " << crash;
    expected = std::min(expected * 2, config.max_ms);
  }
}

TEST(RestartBackoff, HealthyUptimeForgivesTheStreak) {
  RestartBackoffConfig config;
  config.base_ms = 100;
  config.max_ms = 30000;
  config.healthy_reset_ms = 5000;
  RestartBackoff backoff(config);
  for (int i = 0; i < 5; ++i) backoff.on_exit(0);
  EXPECT_EQ(backoff.streak(), 5);
  // A run past healthy_reset_ms restarts the schedule from the base: a
  // deploy-then-crash a day later must not inherit last week's cap.
  const int delay = backoff.on_exit(config.healthy_reset_ms);
  EXPECT_EQ(backoff.streak(), 1);
  EXPECT_GE(delay, 75);
  EXPECT_LE(delay, 125);
  // Just short of healthy keeps the streak.
  backoff.on_exit(config.healthy_reset_ms - 1);
  EXPECT_EQ(backoff.streak(), 2);
}

TEST(RestartBackoff, SeedDeterminesTheDelaySequence) {
  RestartBackoffConfig config;
  config.seed = 99;
  RestartBackoff a(config), b(config);
  config.seed = 100;
  RestartBackoff c(config);
  bool any_difference = false;
  for (int i = 0; i < 8; ++i) {
    const int delay = a.on_exit(0);
    EXPECT_EQ(delay, b.on_exit(0));
    any_difference |= (delay != c.on_exit(0));
  }
  EXPECT_TRUE(any_difference) << "different seeds produced identical jitter";
}

// ---------------------------------------------------------------------------
// Fleet-stats merge
// ---------------------------------------------------------------------------

TEST(FleetStats, ExtractJsonNumber) {
  const std::string json = "{\"submitted\":12,\"latency_mean_ms\":3.25}";
  EXPECT_EQ(extract_json_number(json, "submitted"), 12.0);
  EXPECT_EQ(extract_json_number(json, "latency_mean_ms"), 3.25);
  EXPECT_EQ(extract_json_number(json, "absent"), std::nullopt);
  EXPECT_EQ(extract_json_number("{\"k\":oops}", "k"), std::nullopt);
}

TEST(FleetStats, MergeSumsTotalsAndKeepsPerShardDetail) {
  std::vector<ShardStatsEntry> entries(3);
  entries[0].shard = ShardSnapshot{ShardId{"a", 1}, ShardState::kAlive};
  entries[0].stats_json =
      "{\"schema\":\"gaurast-serve-stats/v1\",\"submitted\":5,"
      "\"completed\":4,\"rejected\":1,\"scene_cache_hits\":3,"
      "\"scene_cache_misses\":2,\"stages\":[]}";
  entries[1].shard = ShardSnapshot{ShardId{"b", 2}, ShardState::kSuspect};
  entries[1].stats_json =
      "{\"schema\":\"gaurast-serve-stats/v1\",\"submitted\":7,"
      "\"completed\":7,\"rejected\":0,\"scene_cache_hits\":1,"
      "\"scene_cache_misses\":1,\"stages\":[]}";
  // A dead shard contributes nothing to the sums and a null stats entry.
  entries[2].shard = ShardSnapshot{ShardId{"c", 3}, ShardState::kDead};

  RouterStatsSnapshot router;
  router.routed_ok = 11;
  router.failovers = 2;
  router.latency_ms = {10.0, 20.0};
  router.route_overhead_ms = {1.0, 3.0};

  const std::string json = merge_fleet_stats(entries, router);
  EXPECT_EQ(json.find("{\"schema\":\"gaurast-fleet-stats/v2\""), 0u);
  EXPECT_NE(json.find("\"shards_total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_alive\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"submitted\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rejected\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scene_cache_hits\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"routed_ok\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failovers\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_mean_ms\":15"), std::string::npos) << json;
  EXPECT_NE(json.find("\"route_overhead_mean_ms\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"state\":\"dead\",\"deaths\":0,\"stats\":null"),
            std::string::npos)
      << json;
  // Per-shard serve stats are embedded verbatim, not averaged away.
  EXPECT_NE(json.find("\"submitted\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"submitted\":7"), std::string::npos) << json;
}

/// Totals past 1e6 print every digit (a double at the stream's default 6
/// significant digits would print 5.65012e+06), and a counter that is
/// negative or not a number adds nothing.
TEST(FleetStats, TotalsAboveOneMillionKeepEveryDigit) {
  std::vector<ShardStatsEntry> entries(3);
  entries[0].shard = ShardSnapshot{ShardId{"a", 1}, ShardState::kAlive};
  entries[0].stats_json =
      "{\"submitted\":1000001,\"completed\":999999,"
      "\"scene_resident_bytes\":2825123}";
  entries[1].shard = ShardSnapshot{ShardId{"b", 2}, ShardState::kAlive};
  entries[1].stats_json =
      "{\"submitted\":4294967296,\"completed\":1,"
      "\"scene_resident_bytes\":2824999}";
  entries[2].shard = ShardSnapshot{ShardId{"c", 3}, ShardState::kAlive};
  entries[2].stats_json = "{\"submitted\":-7,\"completed\":oops}";

  const std::string json = merge_fleet_stats(entries, RouterStatsSnapshot{});
  EXPECT_NE(json.find("\"fleet\":{\"submitted\":4295967297,"
                      "\"completed\":1000000,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"scene_resident_bytes\":5650122,"), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Router end to end
// ---------------------------------------------------------------------------

/// An in-process fleet: N real net::Servers over their own RenderServices,
/// plus a HostDb and Router fronting them.
class Fleet {
 public:
  explicit Fleet(int shard_count, runtime::ServiceConfig service_config = {},
                 RouterConfig router_config = {},
                 HostDbConfig db_config = {}) {
    if (service_config.backend.empty()) service_config.backend = "sw";
    std::vector<ShardId> ids;
    for (int i = 0; i < shard_count; ++i) {
      services_.push_back(
          std::make_unique<runtime::RenderService>(service_config));
      servers_.push_back(
          std::make_unique<net::Server>(*services_.back(), net::ServerConfig{}));
      servers_.back()->start();
      ids.push_back(ShardId{"127.0.0.1", servers_.back()->port()});
    }
    db_ = std::make_unique<HostDb>(ids, db_config);
    router_ = std::make_unique<Router>(*db_, router_config);
    router_->start();
  }

  ~Fleet() {
    router_->stop();
    for (auto& server : servers_) {
      if (server) server->stop();
    }
  }

  HostDb& db() { return *db_; }
  Router& router() { return *router_; }
  runtime::RenderService& service(std::size_t i) { return *services_[i]; }
  int router_port() const { return router_->port(); }
  int shard_port(std::size_t i) const { return servers_[i]->port(); }

  /// Kills shard `i` (graceful server stop; the port stops listening).
  void kill_shard(std::size_t i) {
    servers_[i]->stop();
    servers_[i].reset();
  }

  /// Restarts shard `i`'s server on its original port over the same
  /// service.
  void restart_shard(std::size_t i) {
    net::ServerConfig config;
    config.port = db_->shard(i).port;
    servers_[i] = std::make_unique<net::Server>(*services_[i], config);
    servers_[i]->start();
  }

  /// The first seed from `first_seed` on whose scene key is owned by shard
  /// `owner` under this fleet's HRW map.
  std::uint64_t seed_owned_by(std::size_t owner, std::uint64_t count,
                              int width, int height,
                              std::uint64_t first_seed = 0) const {
    for (std::uint64_t seed = first_seed;; ++seed) {
      net::RenderRequest req =
          net::default_render_request(count, seed, width, height);
      if (db_->hrw_order(req.scene)[0] == owner) return seed;
    }
  }

 private:
  std::vector<std::unique_ptr<runtime::RenderService>> services_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<HostDb> db_;
  std::unique_ptr<Router> router_;
};

TEST(Router, RoutedRenderMatchesDirectServeBitIdentical) {
  constexpr std::uint32_t kGaussians = 20000, kWidth = 320, kHeight = 240;
  runtime::ServiceConfig service_config;
  service_config.workers = 2;
  RouterConfig router_config;
  router_config.forward_timeout_ms = 60000;  // slow sanitized renders
  Fleet fleet(2, service_config, router_config);

  // The canonical 20k/320x240 frame, routed through the fleet front-end.
  net::RenderRequest wire =
      net::default_render_request(kGaussians, 42, kWidth, kHeight);
  wire.request_id = 9;
  wire.flags = net::kWantImage;
  net::Client routed("127.0.0.1", fleet.router_port(),
                     /*timeout_ms=*/60000);
  const net::RenderResponse resp = routed.render(wire);
  ASSERT_EQ(resp.status, net::RenderStatus::kOk) << resp.message;
  ASSERT_TRUE(resp.has_image);
  EXPECT_EQ(resp.request_id, 9u);

  // The same frame served directly, bypassing the router. Both shards run
  // the identical sw configuration, so direct output from either is the
  // ground truth.
  const std::size_t owner = *fleet.db().route(wire.scene);
  net::Client direct("127.0.0.1", fleet.shard_port(owner),
                     /*timeout_ms=*/60000);
  const net::RenderResponse direct_resp = direct.render(wire);
  ASSERT_EQ(direct_resp.status, net::RenderStatus::kOk);

  ASSERT_EQ(resp.pixels.size(), direct_resp.pixels.size());
  EXPECT_EQ(std::memcmp(resp.pixels.data(), direct_resp.pixels.data(),
                        resp.pixels.size() * sizeof(float)),
            0)
      << "routing must not perturb a single pixel bit";

  const RouterStatsSnapshot stats = fleet.router().stats_snapshot();
  EXPECT_EQ(stats.routed_ok, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  ASSERT_EQ(stats.latency_ms.size(), 1u);
  ASSERT_EQ(stats.route_overhead_ms.size(), 1u);
  EXPECT_GE(stats.route_overhead_ms[0], 0.0);
}

TEST(Router, FailsOverWhenShardKilledUnderLoad) {
  runtime::ServiceConfig service_config;
  service_config.workers = 2;
  RouterConfig router_config;
  router_config.connect_timeout_ms = 1000;
  Fleet fleet(2, service_config, router_config);

  // Several client crews hammer the router with small frames across many
  // scene keys, alternating between keys shard 0 and shard 1 own, while
  // shard 0 is killed mid-load. Every request must get a terminal kOk
  // answer — failover absorbs the death; nothing hangs, nothing is dropped.
  // Each crew sends its first half, then waits for the kill to begin and
  // sends the rest into it, so the kill lands mid-load however fast a
  // frame renders.
  constexpr int kThreads = 3;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> crews_at_half{0};
  std::atomic<bool> killing{false};
  std::vector<std::thread> crews;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    crews.emplace_back([&fleet, &ok_counts, &crews_at_half, &killing, t] {
      net::Client client("127.0.0.1", fleet.router_port());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        if (i == kRequestsPerThread / 2) {
          crews_at_half.fetch_add(1);
          while (!killing.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        const std::uint64_t seed = fleet.seed_owned_by(
            static_cast<std::size_t>(i % 2), 600, 64, 48,
            static_cast<std::uint64_t>(t * 100 + i * 10));
        net::RenderRequest wire =
            net::default_render_request(600, seed, 64, 48);
        wire.request_id = static_cast<std::uint64_t>(t * 1000 + i);
        wire.flags = net::kWantImage;
        const net::RenderResponse resp = client.render(wire);
        EXPECT_EQ(resp.status, net::RenderStatus::kOk) << resp.message;
        EXPECT_EQ(resp.request_id, wire.request_id);
        if (resp.status == net::RenderStatus::kOk) ++ok_counts[t];
      }
    });
  }
  while (crews_at_half.load() < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  killing.store(true);
  fleet.kill_shard(0);
  for (std::thread& crew : crews) crew.join();

  for (const int ok : ok_counts) EXPECT_EQ(ok, kRequestsPerThread);
  // New requests for scenes shard 0 owned keep working via the remap.
  const std::uint64_t seed = fleet.seed_owned_by(0, 500, 64, 48);
  net::RenderRequest wire = net::default_render_request(500, seed, 64, 48);
  net::Client client("127.0.0.1", fleet.router_port());
  EXPECT_EQ(client.render(wire).status, net::RenderStatus::kOk);
  EXPECT_EQ(fleet.db().state(0), ShardState::kDead);
}

TEST(Router, ProberResurrectsARestartedShard) {
  RouterConfig router_config;
  router_config.probe_interval_ms = 100;
  router_config.probe_timeout_ms = 500;
  Fleet fleet(2, {}, router_config);

  fleet.kill_shard(0);
  // The prober (or a forward failure) demotes the dead shard.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (fleet.db().state(0) != ShardState::kDead) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never died";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  fleet.restart_shard(0);
  while (fleet.db().state(0) != ShardState::kAlive) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "prober never resurrected the restarted shard";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Ownership deterministically moves back.
  const std::uint64_t seed = fleet.seed_owned_by(0, 500, 64, 48);
  net::RenderRequest wire = net::default_render_request(500, seed, 64, 48);
  EXPECT_EQ(*fleet.db().route(wire.scene),
            fleet.db().hrw_order(wire.scene)[0]);
  net::Client client("127.0.0.1", fleet.router_port());
  EXPECT_EQ(client.render(wire).status, net::RenderStatus::kOk);
}

/// Test double whose render blocks on a caller-controlled gate — the lever
/// for wedging a shard's service queue full deterministically (same double
/// net_test uses for the single-server admission-control test).
class GatedBackend : public engine::RenderBackend {
 public:
  explicit GatedBackend(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}

  std::string name() const override { return "gated"; }
  std::string describe() const override { return "gated test double"; }
  engine::Capabilities capabilities() const override {
    return sw_.capabilities();
  }
  engine::FrameOutput render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const engine::FrameOptions& options)
      const override {
    entered_.fetch_add(1, std::memory_order_release);
    gate_.wait();
    return sw_.render(scene, camera, options);
  }

  void wait_until_rendering(int count) const {
    while (entered_.load(std::memory_order_acquire) < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  engine::SoftwareBackend sw_;
  std::shared_future<void> gate_;
  mutable std::atomic<int> entered_{0};
};

TEST(Router, PassesThroughShardOverload) {
  // A single-shard fleet whose shard is wedged full: one job parked on the
  // gate, one occupying the only queue slot. The shard's kOverloaded
  // answer must pass through the router untouched — same admission
  // contract, one hop deeper.
  std::promise<void> gate;
  const auto gated = std::make_shared<GatedBackend>(gate.get_future().share());
  runtime::ServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 1;
  service_config.backend_instance = gated;
  Fleet fleet(1, service_config);

  runtime::RenderService& service = fleet.service(0);
  const runtime::ScenePtr scene = service.scene("synthetic:600@7");
  const scene::Camera camera = scene::default_camera({}, 64, 48);
  std::vector<std::future<runtime::JobResult>> futures;
  futures.push_back(service.submit({scene, camera}));
  gated->wait_until_rendering(1);
  auto queued = service.try_submit({scene, camera});
  ASSERT_TRUE(queued) << "queue slot not free after worker dequeued";
  futures.push_back(std::move(*queued));
  ASSERT_FALSE(service.try_submit({scene, camera})) << "queue never filled";

  net::Client client("127.0.0.1", fleet.router_port());
  net::RenderRequest wire = net::default_render_request(600, 7, 64, 48);
  wire.request_id = 21;
  const net::RenderResponse resp = client.render(wire);
  EXPECT_EQ(resp.status, net::RenderStatus::kOverloaded);
  EXPECT_EQ(resp.request_id, 21u);
  EXPECT_FALSE(resp.message.empty());

  // Passthrough, not shed: the router's own queue never filled, and the
  // shard stays alive — admission control is not a health failure.
  const RouterStatsSnapshot stats = fleet.router().stats_snapshot();
  EXPECT_EQ(stats.overloaded, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(fleet.db().state(0), ShardState::kAlive);

  gate.set_value();
  for (auto& f : futures) f.get();
}

TEST(Router, AllShardsDownYieldsFleetUnavailableNotAHang) {
  // Two ports with no listener: reserve ephemeral ports, then close them.
  std::vector<ShardId> ids;
  for (int i = 0; i < 2; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    ids.push_back(ShardId{"127.0.0.1", ntohs(addr.sin_port)});
    ::close(fd);
  }

  HostDb db(ids);
  RouterConfig config;
  config.connect_timeout_ms = 500;
  config.probe_interval_ms = 60000;  // keep probes out of this test
  Router router(db, config);
  router.start();

  net::Client client("127.0.0.1", router.port(), /*timeout_ms=*/15000);
  net::RenderRequest wire = net::default_render_request(500, 1, 64, 48);
  wire.request_id = 4;
  const auto t0 = std::chrono::steady_clock::now();
  const net::RenderResponse resp = client.render(wire);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(resp.status, net::RenderStatus::kFleetUnavailable);
  EXPECT_EQ(resp.request_id, 4u);
  EXPECT_NE(resp.message.find("fleet unavailable"), std::string::npos)
      << resp.message;
  // An explicit error, promptly — never a hang.
  EXPECT_LT(elapsed_ms, 10000);

  // The connection survived; the merged stats still answer and both shards
  // report dead.
  const std::string stats = client.stats().json;
  EXPECT_EQ(stats.find("{\"schema\":\"gaurast-fleet-stats/v2\""), 0u);
  EXPECT_NE(stats.find("\"shards_alive\":0"), std::string::npos) << stats;
  const RouterStatsSnapshot snap = router.stats_snapshot();
  EXPECT_GE(snap.fleet_unavailable, 1u);
  router.stop();
}

TEST(Router, StatsEndpointsServeMergedFleetDocument) {
  Fleet fleet(2);
  net::Client client("127.0.0.1", fleet.router_port());
  net::RenderRequest wire = net::default_render_request(500, 3, 64, 48);
  ASSERT_EQ(client.render(wire).status, net::RenderStatus::kOk);

  // Wire stats frame: the merged fleet document, not a single-shard one.
  const std::string json = client.stats().json;
  EXPECT_EQ(json.find("{\"schema\":\"gaurast-fleet-stats/v2\""), 0u);
  EXPECT_NE(json.find("\"shards_total\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"routed_ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("gaurast-serve-stats/v3"), std::string::npos)
      << "per-shard stats must be embedded: " << json;

  // HTTP: /stats serves the same document; /healthz stays local and cheap.
  net::Client http_stats("127.0.0.1", fleet.router_port());
  const std::string body = http_stats.http_get("/stats");
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("gaurast-fleet-stats/v2"), std::string::npos);

  net::Client healthz("127.0.0.1", fleet.router_port());
  const std::string health = healthz.http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("gaurast-fleet-health/v1"), std::string::npos);
  EXPECT_NE(health.find("\"shards_alive\":2"), std::string::npos);

  net::Client bogus("127.0.0.1", fleet.router_port());
  EXPECT_NE(bogus.http_get("/bogus").find("404"), std::string::npos);
}

}  // namespace
