// Tests for the scene::SceneStore subsystem: canonical scene-key parsing,
// the quantized at-rest representation (bit-stable dequantization, the
// <= 0.6x resident-byte budget), strict LRU eviction under a byte budget,
// single-flight loading, pin-while-rendering, admission control
// (store-level and end-to-end over the wire), and the acceptance property
// the store is specified against: a byte-budgeted service produces frames
// bit-identical to an unbounded one.

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/service.hpp"
#include "scene/generator.hpp"
#include "scene/quantized.hpp"
#include "scene/store.hpp"

namespace {

using namespace gaurast;
using namespace gaurast::scene;

GaussianScene small_scene(std::uint64_t count = 200, std::uint64_t seed = 7,
                          int sh_degree = 3) {
  GeneratorParams params;
  params.gaussian_count = count;
  params.seed = seed;
  params.sh_degree = sh_degree;
  return generate_scene(params);
}

/// Bitwise equality over every attribute array — the equality the store's
/// frame-stability guarantee reduces to.
bool scenes_identical(const GaussianScene& a, const GaussianScene& b) {
  if (a.size() != b.size() || a.sh_degree() != b.sh_degree()) return false;
  if (a.empty()) return true;
  const auto bytes_eq = [](const auto& x, const auto& y) {
    return std::memcmp(x.data(), y.data(),
                       x.size() * sizeof(x[0])) == 0;
  };
  return bytes_eq(a.positions(), b.positions()) &&
         bytes_eq(a.scales(), b.scales()) &&
         bytes_eq(a.rotations(), b.rotations()) &&
         bytes_eq(a.opacities(), b.opacities()) && bytes_eq(a.sh(), b.sh());
}

/// Store over a seeded per-key FunctionSource; `loads` counts source
/// resolutions (misses that reached the source).
SceneStoreConfig counted_config(std::atomic<int>& loads,
                                std::uint64_t count = 200) {
  SceneStoreConfig config;
  config.source = std::make_shared<const FunctionSource>(
      [&loads, count](const std::string& key) {
        ++loads;
        return small_scene(count, std::hash<std::string>{}(key) & 0xffff);
      });
  return config;
}

/// Accounted bytes one counted_config scene occupies.
std::size_t one_scene_bytes(std::uint64_t count = 200) {
  return quantize(small_scene(count, 1)).resident_bytes();
}

// ---------------------------------------------------------------------------
// Canonical scene keys
// ---------------------------------------------------------------------------

TEST(SceneKey, ParsesSyntheticWithSeed) {
  const SceneKey key = parse_scene_key("synthetic:20000@42");
  EXPECT_EQ(key.kind, SceneKey::Kind::kSynthetic);
  EXPECT_EQ(key.count, 20000u);
  EXPECT_EQ(key.seed, 42u);
  EXPECT_EQ(key.canonical(), "synthetic:20000@42");
}

TEST(SceneKey, SyntheticSeedDefaultsTo42) {
  const SceneKey key = parse_scene_key("synthetic:512");
  EXPECT_EQ(key.count, 512u);
  EXPECT_EQ(key.seed, 42u);
  EXPECT_EQ(key.canonical(), "synthetic:512@42");
}

TEST(SceneKey, ParsesPlyPathAndName) {
  const SceneKey by_name = parse_scene_key("ply:garden");
  EXPECT_EQ(by_name.kind, SceneKey::Kind::kPly);
  EXPECT_EQ(by_name.path, "garden");
  const SceneKey by_path = parse_scene_key("ply:/data/scenes/garden.ply");
  EXPECT_EQ(by_path.path, "/data/scenes/garden.ply");
  EXPECT_EQ(by_path.canonical(), "ply:/data/scenes/garden.ply");
}

TEST(SceneKey, SyntheticKeyHelperIsCanonical) {
  EXPECT_EQ(synthetic_scene_key(600, 7), "synthetic:600@7");
  const SceneKey key = parse_scene_key(synthetic_scene_key(600, 7));
  EXPECT_EQ(key.count, 600u);
  EXPECT_EQ(key.seed, 7u);
}

TEST(SceneKey, RejectsNonCanonicalSpellings) {
  // The retired pre-store spelling must not silently parse.
  EXPECT_THROW(parse_scene_key("synthetic-20000-s42"), Error);
  EXPECT_THROW(parse_scene_key("garden.ply"), Error);
  EXPECT_THROW(parse_scene_key("mesh:teapot"), Error);
  EXPECT_THROW(parse_scene_key("synthetic:"), Error);
  EXPECT_THROW(parse_scene_key("synthetic:0"), Error);
  EXPECT_THROW(parse_scene_key("synthetic:-5"), Error);
  EXPECT_THROW(parse_scene_key("synthetic:12x"), Error);
  EXPECT_THROW(parse_scene_key("ply:"), Error);
}

// ---------------------------------------------------------------------------
// Quantized representation
// ---------------------------------------------------------------------------

TEST(Quantized, DequantizeIsBitStableAcrossShDegrees) {
  for (int degree = 0; degree <= 3; ++degree) {
    const GaussianScene original = small_scene(300, 11, degree);
    const QuantizedScene q = quantize(original);
    ASSERT_EQ(q.size(), original.size());
    // Same bytes in, same scene out — twice. This is the property that
    // makes an evict-and-reload cycle frame-stable.
    const GaussianScene first = dequantize(q);
    const GaussianScene second = dequantize(q);
    EXPECT_TRUE(scenes_identical(first, second)) << "degree " << degree;
    // Re-quantizing the working copy is a fixed point for every directly
    // coded field (fp16 and u8 round-trip their own values exactly).
    // Rotations are exempt: a quaternion whose two largest components
    // nearly tie can legitimately re-encode with a different
    // largest-component tag — the store never re-quantizes, so only
    // dequantize purity (checked above) carries a guarantee.
    const QuantizedScene q2 = quantize(first);
    EXPECT_EQ(q.positions, q2.positions) << "degree " << degree;
    EXPECT_EQ(q.scales, q2.scales) << "degree " << degree;
    EXPECT_EQ(q.opacities, q2.opacities) << "degree " << degree;
    EXPECT_EQ(q.sh, q2.sh) << "degree " << degree;
  }
}

TEST(Quantized, RotationPackRoundTripIsDeterministic) {
  const GaussianScene scene = small_scene(500, 3);
  for (const Quatf& q : scene.rotations()) {
    const std::uint32_t bits = pack_rotation(q);
    const Quatf once = unpack_rotation(bits);
    // pack(unpack(bits)) must be a fixed point, or resident payloads would
    // drift across demote/re-inflate cycles.
    EXPECT_EQ(pack_rotation(once), bits);
  }
}

TEST(Quantized, ResidentBytesAtMost0Point6xOfFloat) {
  // The canonical 20k serving configuration the budget is specified
  // against (ROADMAP acceptance: quantized resident <= 0.6x float32).
  const GaussianScene scene = small_scene(20000, 42);
  const QuantizedScene q = quantize(scene);
  const std::size_t float_bytes = scene.bytes_per_gaussian() * scene.size();
  EXPECT_LE(q.resident_bytes(),
            static_cast<std::size_t>(0.6 * static_cast<double>(float_bytes)))
      << q.resident_bytes() << " quantized vs " << float_bytes << " float";
  // And the admission-control size formula matches what is actually held.
  EXPECT_EQ(q.resident_bytes(),
            quantized_bytes_per_splat(scene.sh_degree()) * scene.size());
}

// ---------------------------------------------------------------------------
// SceneStore: LRU eviction, single-flight, pinning
// ---------------------------------------------------------------------------

TEST(SceneStore, EvictsLeastRecentlyUsedFirst) {
  std::atomic<int> loads{0};
  const std::size_t scene_bytes = one_scene_bytes();
  SceneStoreConfig config = counted_config(loads);
  config.max_bytes = 2 * scene_bytes;  // room for exactly two scenes
  SceneStore store(config);

  store.acquire("a");
  store.acquire("b");
  store.acquire("a");  // touch: "b" is now the LRU entry
  store.acquire("c");  // over budget -> evict exactly one, the LRU

  SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_scenes, 2u);
  EXPECT_LE(stats.resident_bytes, config.max_bytes);

  // "a" survived (no new source load); "b" was the victim (reloads).
  const int loads_before = loads.load();
  store.acquire("a");
  EXPECT_EQ(loads.load(), loads_before);
  store.acquire("b");
  EXPECT_EQ(loads.load(), loads_before + 1);
}

TEST(SceneStore, SingleFlightLoadsOnceUnderContention) {
  std::atomic<int> loads{0};
  SceneStoreConfig config;
  config.source = std::make_shared<const FunctionSource>(
      [&loads](const std::string&) {
        ++loads;
        // Widen the race window: every thread should arrive while the
        // first load is still in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return small_scene();
      });
  SceneStore store(config);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const GaussianScene>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &results, t] {
      results[static_cast<std::size_t>(t)] = store.acquire("contended");
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(loads.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)], results[0]);
  }
  const SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SceneStore, DistinctKeysLoadConcurrently) {
  // Two keys whose loads overlap: if the store serialized all loads behind
  // one lock, the second load could never start while the first sleeps.
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  SceneStoreConfig config;
  config.source = std::make_shared<const FunctionSource>(
      [&](const std::string&) {
        const int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        --in_flight;
        return small_scene();
      });
  SceneStore store(config);
  std::thread t1([&store] { store.acquire("x"); });
  std::thread t2([&store] { store.acquire("y"); });
  t1.join();
  t2.join();
  EXPECT_EQ(max_in_flight.load(), 2);
}

TEST(SceneStore, PinnedSceneSurvivesEvictionPressure) {
  std::atomic<int> loads{0};
  const std::size_t scene_bytes = one_scene_bytes();
  SceneStoreConfig config = counted_config(loads);
  config.max_bytes = 2 * scene_bytes;
  SceneStore store(config);

  // Hold "a" like an in-flight render does, then blow the budget.
  const std::shared_ptr<const GaussianScene> pinned = store.acquire("a");
  store.acquire("b");
  store.acquire("c");  // must evict "b": "a" is pinned despite being LRU

  const int loads_after_pressure = loads.load();
  const std::shared_ptr<const GaussianScene> again = store.acquire("a");
  EXPECT_EQ(again, pinned) << "pinned scene was evicted mid-render";
  EXPECT_EQ(loads.load(), loads_after_pressure);

  SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, config.max_bytes);
}

TEST(SceneStore, AllPinnedOvershootsThenTrimRefits) {
  std::atomic<int> loads{0};
  const std::size_t scene_bytes = one_scene_bytes();
  SceneStoreConfig config = counted_config(loads);
  config.max_bytes = scene_bytes;  // only one scene fits
  SceneStore store(config);

  // With every entry pinned the store must overshoot rather than free a
  // scene a render still holds.
  std::shared_ptr<const GaussianScene> a = store.acquire("a");
  std::shared_ptr<const GaussianScene> b = store.acquire("b");
  SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.resident_scenes, 2u);
  EXPECT_GT(stats.resident_bytes, config.max_bytes);
  EXPECT_EQ(stats.evictions, 0u);

  // Pins released (the drain moment): trim must re-fit the budget.
  a.reset();
  b.reset();
  store.trim();
  stats = store.stats();
  EXPECT_LE(stats.resident_bytes, config.max_bytes);
  EXPECT_EQ(stats.resident_scenes, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(SceneStore, ColdHitReinflatesIdenticallyWithoutSource) {
  std::atomic<int> loads{0};
  SceneStore store(counted_config(loads));

  std::shared_ptr<const GaussianScene> first = store.acquire("a");
  const GaussianScene snapshot = *first;  // outlives the demote
  first.reset();  // demote: working copy dies, quantized payload stays

  const std::shared_ptr<const GaussianScene> second = store.acquire("a");
  EXPECT_EQ(loads.load(), 1) << "cold hit went back to the source";
  EXPECT_TRUE(scenes_identical(snapshot, *second));
  const SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);  // the re-inflate counts as a hit
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(SceneStore, SyntheticSourceRejectsBeforeGenerating) {
  SceneStoreConfig config;
  config.source = std::make_shared<const SyntheticSource>();
  config.max_scene_bytes =
      quantized_bytes_per_splat(3) * 1000;  // fits 1000 splats, not 20000
  SceneStore store(config);

  EXPECT_THROW(store.acquire("synthetic:20000@42"), SceneOverBudgetError);
  SceneStoreStats stats = store.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.resident_scenes, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);

  // Admissible scenes keep serving after a rejection.
  EXPECT_NE(store.acquire("synthetic:500@7"), nullptr);
}

TEST(SceneStore, GenericSourceRejectsOversizedAfterQuantize) {
  std::atomic<int> loads{0};
  SceneStoreConfig config = counted_config(loads, /*count=*/1000);
  config.max_scene_bytes = one_scene_bytes(1000) - 1;
  SceneStore store(config);
  EXPECT_THROW(store.acquire("big"), SceneOverBudgetError);
  EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(SceneStore, RejectionReleasesSingleFlightClaim) {
  // A failed load must not wedge later acquires of the same key.
  SceneStoreConfig config;
  config.source = std::make_shared<const SyntheticSource>();
  config.max_scene_bytes = quantized_bytes_per_splat(3) * 1000;
  SceneStore store(config);
  EXPECT_THROW(store.acquire("synthetic:20000@42"), SceneOverBudgetError);
  EXPECT_THROW(store.acquire("synthetic:20000@42"), SceneOverBudgetError);
  EXPECT_EQ(store.stats().rejected, 2u);
}

TEST(Server, OverBudgetSceneRefusedOnTheWireAndServingContinues) {
  runtime::ServiceConfig config;
  config.workers = 1;
  config.backend = "sw";
  // Fits the 600-splat scene, nowhere near the 20000-splat one.
  config.max_scene_bytes = quantized_bytes_per_splat(3) * 1000;
  runtime::RenderService service(config);
  net::Server server(service, {});
  server.start();
  {
    net::Client client("127.0.0.1", server.port());

    net::RenderRequest too_big = net::default_render_request(20000, 42, 64, 48);
    too_big.request_id = 1;
    const net::RenderResponse refused = client.render(too_big);
    EXPECT_EQ(refused.status, net::RenderStatus::kServerError);
    EXPECT_NE(refused.message.find("admission"), std::string::npos)
        << refused.message;
    EXPECT_EQ(service.stats().scene_rejected, 1u);

    // The refusal cost a wire response, not the reactor: the next
    // admissible request renders normally on the same connection.
    net::RenderRequest ok_req = net::default_render_request(600, 7, 64, 48);
    ok_req.request_id = 2;
    ok_req.flags = net::kWantImage;
    const net::RenderResponse served = client.render(ok_req);
    EXPECT_EQ(served.status, net::RenderStatus::kOk) << served.message;
    EXPECT_TRUE(served.has_image);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Service-level: budget bit-identity and reload freshness
// ---------------------------------------------------------------------------

/// Renders one frame per key in sequence and returns the images.
std::vector<Image> serve_keys(runtime::ServiceConfig config,
                              const std::vector<std::string>& keys) {
  runtime::RenderService service(std::move(config));
  const scene::Camera camera(64, 48, 0.9f, Vec3f{0.0f, 2.0f, 9.0f},
                             Vec3f{0.0f, 0.0f, 0.0f});
  std::vector<Image> images;
  images.reserve(keys.size());
  for (const std::string& key : keys) {
    runtime::ScenePtr scene = service.scene(key);
    images.push_back(
        service.submit({std::move(scene), camera}).get().frame.image);
  }
  return images;
}

bool images_identical(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixel_count() * sizeof(Vec3f)) == 0;
}

TEST(RenderService, BudgetedFramesBitIdenticalToUnbounded) {
  // The store's acceptance property: a budget changes memory and latency,
  // never pixels. The budgeted service holds one scene at a time, so the
  // a/b/a/b sequence forces evict-and-reload on every frame.
  const auto source_fn = [](const std::string& key) {
    return small_scene(300, key == "a" ? 1 : 2);
  };
  const std::vector<std::string> sequence = {"a", "b", "a", "b", "a"};

  runtime::ServiceConfig unbounded;
  unbounded.workers = 1;
  unbounded.backend = "sw";
  unbounded.scene_source = std::make_shared<const FunctionSource>(source_fn);
  runtime::ServiceConfig budgeted = unbounded;
  budgeted.scene_budget_bytes = one_scene_bytes(300);

  const std::vector<Image> baseline = serve_keys(unbounded, sequence);
  const std::vector<Image> squeezed = serve_keys(budgeted, sequence);
  ASSERT_EQ(baseline.size(), squeezed.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(images_identical(baseline[i], squeezed[i]))
        << "frame " << i << " diverged under the byte budget";
  }
}

TEST(RenderService, ReloadedSceneRendersFreshContent) {
  // A reload after eviction may land at a recycled allocation; a reload
  // whose source now returns different content must render that content,
  // not the ghost of the old scene.
  std::atomic<int> version{0};
  runtime::ServiceConfig config;
  config.backend = "sw";
  config.scene_source = std::make_shared<const FunctionSource>(
      [&version](const std::string& key) {
        if (key == "filler") return small_scene(300, 99);
        // Key "s": different scene content on every (re)load.
        return small_scene(300, version.fetch_add(1) == 0 ? 1 : 2);
      });
  config.scene_budget_bytes = one_scene_bytes(300);  // one scene fits
  runtime::RenderService service(config);
  const scene::Camera camera(64, 48, 0.9f, Vec3f{0.0f, 2.0f, 9.0f},
                             Vec3f{0.0f, 0.0f, 0.0f});

  // First load of "s" (v1) renders.
  const Image first =
      service.submit({service.scene("s"), camera}).get().frame.image;
  // Evict "s": acquire another scene while no pin on "s" is outstanding.
  // The executor may release the completed job's pin slightly after the
  // future resolves, so retry until the eviction actually lands.
  service.drain();
  for (int i = 0; i < 1000 && service.stats().scene_evictions == 0; ++i) {
    (void)service.scene("filler");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.stats().scene_evictions, 1u)
      << "pressure never evicted the demoted scene";
  // Reload "s": the source now serves v2.
  const Image second =
      service.submit({service.scene("s"), camera}).get().frame.image;

  // Reference: a fresh unbounded service rendering v2 directly.
  runtime::ServiceConfig reference = config;
  reference.scene_budget_bytes = 0;
  reference.scene_source = std::make_shared<const FunctionSource>(
      [](const std::string&) { return small_scene(300, 2); });
  runtime::RenderService ref_service(reference);
  const Image expected =
      ref_service.submit({ref_service.scene("s"), camera}).get().frame.image;

  EXPECT_FALSE(images_identical(first, second))
      << "reload served the old scene content";
  EXPECT_TRUE(images_identical(second, expected))
      << "reloaded scene did not render its new content";
}

}  // namespace
