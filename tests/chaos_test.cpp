// Chaos harness for the fleet's robustness layer: seeded fault plans
// driving deterministic failure scenarios end to end.
//
// Unit level: fault-plan parsing, the nth/p= trigger semantics, and the
// seed-determinism contract (same plan, same hit order, same injections).
// Fleet level, each against an in-process router + real net::Servers:
//
//   expired-deadline flood  every response is an explicit
//                           kDeadlineExceeded within the deadline plus a
//                           small epsilon — never a hang, never silence;
//   drop-storm              injected forward failures (cluster.forward,
//                           p=0.3) are absorbed by retry/failover; every
//                           request terminates, and every successful frame
//                           is bit-identical to its clean-run twin;
//   breaker                 injected consecutive failures kill a shard,
//                           and the prober's first success after the
//                           re-admission cooldown brings it back;
//   crash-loop              a worker process armed (via GAURAST_FAULT_PLAN,
//                           the env inheritance a spawned fleet really
//                           uses) to _exit mid-respond is reaped and
//                           relaunched on its original port by the Spawner
//                           after its restart backoff, and serves again.
//
// The crash-loop scenario forks the real gaurast_cli binary; it skips
// unless ctest exported its path as GAURAST_CLI.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/host_db.hpp"
#include "cluster/router.hpp"
#include "cluster/spawner.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "engine/backends.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::cluster;

/// Every test that arms a plan holds one of these: the registry is
/// process-global, and a plan leaking into the next test would make its
/// failures incomprehensible.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

// ---------------------------------------------------------------------------
// Fault plans: parsing, triggers, determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesSpecsAndRejectsMalformed) {
  const fault::Plan plan = fault::parse_plan(
      "seed=7;net.client.recv:error:p=0.25;cluster.forward:delay=40:nth=3");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].point, "net.client.recv");
  EXPECT_EQ(plan.rules[0].action, fault::Action::kError);
  EXPECT_EQ(plan.rules[0].probability, 0.25);
  EXPECT_EQ(plan.rules[1].point, "cluster.forward");
  EXPECT_EQ(plan.rules[1].action, fault::Action::kDelay);
  EXPECT_EQ(plan.rules[1].delay_ms, 40);
  EXPECT_EQ(plan.rules[1].nth, 3u);

  // Seed stays at its default when the spec has none.
  EXPECT_EQ(fault::parse_plan("a.b:drop:p=1").seed, 1u);

  EXPECT_THROW(fault::parse_plan(""), Error);                    // no rules
  EXPECT_THROW(fault::parse_plan("seed=7"), Error);              // no rules
  EXPECT_THROW(fault::parse_plan("a.b:error"), Error);           // no trigger
  EXPECT_THROW(fault::parse_plan(":error:p=0.5"), Error);        // no point
  EXPECT_THROW(fault::parse_plan("a.b:explode:p=0.5"), Error);   // bad action
  EXPECT_THROW(fault::parse_plan("a.b:delay:p=0.5"), Error);     // no ms arg
  EXPECT_THROW(fault::parse_plan("a.b:error=1:p=0.5"), Error);   // stray arg
  EXPECT_THROW(fault::parse_plan("a.b:error:p=1.5"), Error);     // p > 1
  EXPECT_THROW(fault::parse_plan("a.b:error:nth=0"), Error);     // 1-based
  EXPECT_THROW(fault::parse_plan("a.b:error:always"), Error);    // bad trigger
}

TEST(FaultPlan, NthTriggerFiresOnExactlyTheNthHit) {
  DisarmGuard guard;
  fault::arm("chaos.test.point:error:nth=3");
  for (int hit = 1; hit <= 6; ++hit) {
    const fault::Hit result = fault::evaluate("chaos.test.point");
    EXPECT_EQ(result.action,
              hit == 3 ? fault::Action::kError : fault::Action::kNone)
        << "hit " << hit;
  }
  // Other points never trip a rule that does not name them.
  EXPECT_EQ(fault::evaluate("chaos.test.other").action, fault::Action::kNone);
}

TEST(FaultPlan, ProbabilisticInjectionIsSeedDeterministic) {
  DisarmGuard guard;
  auto pattern = [](const std::string& spec) {
    fault::arm(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(fault::evaluate("chaos.test.point").action !=
                      fault::Action::kNone);
    }
    return fired;
  };
  const auto a = pattern("seed=7;chaos.test.point:error:p=0.5");
  const auto b = pattern("seed=7;chaos.test.point:error:p=0.5");
  const auto c = pattern("seed=8;chaos.test.point:error:p=0.5");
  EXPECT_EQ(a, b) << "same plan must replay the same injection sequence";
  EXPECT_NE(a, c) << "a different seed must draw a different stream";
  // p=0.5 over 64 hits: both extremes mean the RNG stream is broken.
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST(FaultPlan, DisarmedPointsAreInert) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::evaluate("chaos.test.point").action, fault::Action::kNone);
  EXPECT_NO_THROW(fault::inject("chaos.test.point"));
  // inject() throws only while a matching rule is armed.
  {
    DisarmGuard guard;
    fault::arm("chaos.test.point:error:p=1");
    EXPECT_THROW(fault::inject("chaos.test.point"), fault::InjectedFault);
  }
  EXPECT_NO_THROW(fault::inject("chaos.test.point"));
}

// ---------------------------------------------------------------------------
// Fleet scenarios
// ---------------------------------------------------------------------------

/// Backend that sleeps before rendering — a deterministically slow shard,
/// without arming delay faults that would also slow the test's own clients.
class SlowBackend : public engine::RenderBackend {
 public:
  explicit SlowBackend(int delay_ms) : delay_ms_(delay_ms) {}

  std::string name() const override { return "slow"; }
  std::string describe() const override { return "slow test double"; }
  engine::Capabilities capabilities() const override {
    return sw_.capabilities();
  }
  engine::FrameOutput render(const scene::GaussianScene& scene,
                             const scene::Camera& camera,
                             const engine::FrameOptions& options)
      const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return sw_.render(scene, camera, options);
  }

 private:
  engine::SoftwareBackend sw_;
  int delay_ms_ = 0;
};

/// An in-process fleet: N real net::Servers over their own RenderServices,
/// plus a HostDb and Router fronting them (cluster_test's harness, minus
/// the pieces these scenarios do not need).
class Fleet {
 public:
  explicit Fleet(int shard_count, runtime::ServiceConfig service_config = {},
                 RouterConfig router_config = {},
                 HostDbConfig db_config = {}) {
    if (service_config.backend.empty() && !service_config.backend_instance) {
      service_config.backend = "sw";
    }
    std::vector<ShardId> ids;
    for (int i = 0; i < shard_count; ++i) {
      services_.push_back(
          std::make_unique<runtime::RenderService>(service_config));
      servers_.push_back(
          std::make_unique<net::Server>(*services_.back(),
                                        net::ServerConfig{}));
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
  int router_port() const { return router_->port(); }

  void kill_shard(std::size_t i) {
    servers_[i]->stop();
    servers_[i].reset();
  }

  void restart_shard(std::size_t i) {
    net::ServerConfig config;
    config.port = db_->shard(i).port;
    servers_[i] = std::make_unique<net::Server>(*services_[i], config);
    servers_[i]->start();
  }

  /// A seed whose scene key is owned by shard `owner` under this fleet's
  /// HRW map.
  std::uint64_t seed_owned_by(std::size_t owner, std::uint64_t count,
                              int width, int height) const {
    for (std::uint64_t seed = 0;; ++seed) {
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

TEST(Chaos, ExpiredDeadlineFloodIsAnsweredNotHung) {
  // A shard whose renders take far longer than the 1ms budget every
  // request carries: no request can ever be served in time, so every
  // response must be an explicit kDeadlineExceeded — promptly, whether it
  // was shed at a router hand-off or by the shard itself.
  runtime::ServiceConfig service_config;
  service_config.workers = 1;
  service_config.backend_instance = std::make_shared<SlowBackend>(100);
  Fleet fleet(1, service_config);

  net::Client client("127.0.0.1", fleet.router_port());
  for (int i = 0; i < 6; ++i) {
    net::RenderRequest wire = net::default_render_request(
        600, static_cast<std::uint64_t>(i), 64, 48);
    wire.request_id = static_cast<std::uint64_t>(i);
    wire.deadline_ms = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const net::RenderResponse resp = client.render(wire);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(resp.status, net::RenderStatus::kDeadlineExceeded)
        << resp.message;
    EXPECT_EQ(resp.request_id, wire.request_id);
    EXPECT_FALSE(resp.message.empty());
    // The deadline-propagation invariant: an expired request is answered
    // within its budget plus a small epsilon, never held to the render's
    // or the transport's own (much larger) timetable.
    EXPECT_LE(elapsed_ms, 1 + 250) << "request " << i << " overstayed";
  }

  const RouterStatsSnapshot stats = fleet.router().stats_snapshot();
  EXPECT_GE(stats.deadline_exceeded +
                static_cast<std::uint64_t>(stats.latency_ms.size()),
            1u)
      << "no hand-off ever observed the expired deadline";
}

TEST(Chaos, DropStormPreservesBitIdenticalFrames) {
  Fleet fleet(2);
  constexpr int kScenes = 4;
  constexpr int kRequestsPerScene = 6;

  auto make_wire = [](int scene, std::uint64_t request_id) {
    net::RenderRequest wire = net::default_render_request(
        600, static_cast<std::uint64_t>(scene), 64, 48);
    wire.request_id = request_id;
    wire.flags = net::kWantImage;
    return wire;
  };

  // Clean pass: the reference frame per scene, rendered through the same
  // router so the comparison isolates the storm, not the route.
  std::map<int, std::vector<float>> reference;
  {
    net::Client client("127.0.0.1", fleet.router_port());
    for (int scene = 0; scene < kScenes; ++scene) {
      const net::RenderResponse resp =
          client.render(make_wire(scene, 1000 + scene));
      ASSERT_EQ(resp.status, net::RenderStatus::kOk) << resp.message;
      ASSERT_TRUE(resp.has_image);
      reference[scene] = resp.pixels;
    }
  }

  // The storm: ~30% of forward attempts fail before reaching the shard.
  // Retry/failover must absorb them into terminal answers — a rendered
  // frame (bit-identical to the clean one) or an explicit
  // kFleetUnavailable when a request's attempt budget drowned. Nothing
  // else, and nothing hangs.
  DisarmGuard guard;
  fault::arm("seed=5;cluster.forward:error:p=0.3");
  int ok = 0, unavailable = 0;
  {
    net::Client client("127.0.0.1", fleet.router_port());
    for (int i = 0; i < kScenes * kRequestsPerScene; ++i) {
      const int scene = i % kScenes;
      const net::RenderRequest wire =
          make_wire(scene, static_cast<std::uint64_t>(i));
      const net::RenderResponse resp = client.render(wire);
      EXPECT_EQ(resp.request_id, wire.request_id);
      if (resp.status == net::RenderStatus::kOk) {
        ++ok;
        ASSERT_TRUE(resp.has_image);
        ASSERT_EQ(resp.pixels.size(), reference[scene].size());
        EXPECT_EQ(std::memcmp(resp.pixels.data(), reference[scene].data(),
                              resp.pixels.size() * sizeof(float)),
                  0)
            << "request " << i << ": a storm survivor must be bit-identical";
      } else {
        EXPECT_EQ(resp.status, net::RenderStatus::kFleetUnavailable)
            << "request " << i << ": " << resp.message;
        ++unavailable;
      }
    }
  }
  fault::disarm();

  // p=0.3 over 24 requests: a storm that injected nothing (or drowned
  // everything) means the fault plan never reached the forward seam.
  EXPECT_GT(ok, 0) << "every request drowned";
  const RouterStatsSnapshot stats = fleet.router().stats_snapshot();
  EXPECT_GE(stats.retries + stats.failovers, 1u)
      << "the storm never injected a failure";
  EXPECT_EQ(static_cast<std::uint64_t>(unavailable), stats.fleet_unavailable);
}

TEST(Chaos, BreakerOpensUnderFailuresAndProberRecloses) {
  RouterConfig router_config;
  router_config.connect_timeout_ms = 500;
  router_config.probe_interval_ms = 50;
  HostDbConfig db_config;
  db_config.readmit_after_ms = 300;
  Fleet fleet(2, {}, router_config, db_config);

  const std::size_t victim = 0;
  const std::uint64_t seed = fleet.seed_owned_by(victim, 600, 64, 48);
  net::RenderRequest wire = net::default_render_request(600, seed, 64, 48);

  fleet.kill_shard(victim);
  // Drive failures through the router until the victim dies (each failed
  // forward reports into the same HostDb the prober feeds).
  net::Client client("127.0.0.1", fleet.router_port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.db().state(victim) != ShardState::kDead) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shard never died";
    // Failover still answers kOk off the surviving shard while the victim
    // racks up failures.
    EXPECT_EQ(client.render(wire).status, net::RenderStatus::kOk);
  }
  EXPECT_GE(fleet.db().snapshot()[victim].deaths, 1u);

  // Recovery: the shard comes back, the prober's first success after the
  // cooldown re-admits it, and ownership deterministically returns.
  fleet.restart_shard(victim);
  while (fleet.db().state(victim) != ShardState::kAlive) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shard never re-admitted after recovery";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(*fleet.db().route(wire.scene), victim);
  EXPECT_EQ(client.render(wire).status, net::RenderStatus::kOk);
}

TEST(Chaos, CrashLoopingWorkerIsRelaunchedAndServesAgain) {
  const char* cli = std::getenv("GAURAST_CLI");
#ifdef GAURAST_CLI_PATH
  if (cli == nullptr || cli[0] == '\0') cli = GAURAST_CLI_PATH;
#endif
  if (cli == nullptr || cli[0] == '\0') {
    GTEST_SKIP() << "no gaurast_cli path (set GAURAST_CLI or build via CMake)";
  }

  // Arm the WORKER via the environment — the same inheritance a real
  // `route --spawn` fleet uses. The plan crashes the worker mid-respond on
  // its second response; this process never arms it (only gaurast_cli's
  // main reads the variable).
  ASSERT_EQ(setenv("GAURAST_FAULT_PLAN", "net.server.respond:crash:nth=2", 1),
            0);
  SpawnerConfig config;
  config.exe = cli;
  config.serve_args = {"--backend", "sw", "--workers", "1"};
  config.restart_backoff_ms = 100;
  Spawner spawner(config);
  std::vector<ShardId> ids;
  try {
    ids = spawner.spawn(1);
  } catch (...) {
    unsetenv("GAURAST_FAULT_PLAN");
    throw;
  }
  // Restarted workers fork with the CURRENT environment: clearing the plan
  // now means the relaunch comes back healthy.
  unsetenv("GAURAST_FAULT_PLAN");
  ASSERT_EQ(ids.size(), 1u);
  const int port = ids[0].port;

  {
    net::Client client(ids[0].host, port, /*timeout_ms=*/30000);
    net::RenderRequest wire = net::default_render_request(600, 7, 64, 48);
    wire.request_id = 1;
    EXPECT_EQ(client.render(wire).status, net::RenderStatus::kOk);
    // Second response: the armed rule _exits the worker mid-respond. The
    // client sees the transport die — an exception, never a hang.
    wire.request_id = 2;
    EXPECT_THROW(client.render(wire), Error);
  }

  // The supervisor reaps the corpse and relaunches on the ORIGINAL port
  // after the restart backoff; the relaunched (plan-free) worker serves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool served = false;
  while (!served) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker never came back";
    spawner.poll();
    try {
      net::Client retry(ids[0].host, port, /*timeout_ms=*/30000,
                        /*connect_timeout_ms=*/500);
      net::RenderRequest wire = net::default_render_request(600, 7, 64, 48);
      wire.request_id = 3;
      served = retry.render(wire).status == net::RenderStatus::kOk;
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(spawner.alive_count(), 1u);
  spawner.stop();
}

}  // namespace
