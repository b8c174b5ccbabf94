// FailureModelCache tests (DESIGN.md §13, §14): views of one shared model
// per key, one build per history under concurrent callers at mixed
// horizons, the expected-price resume from a group's previous entry, older
// snapshots built uncached, the entry bound over a long ingest, and a
// sharded tier whose tenants build one model per dirty group per epoch.
#include "core/failure_model_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ondemand.h"
#include "core/setup_builder.h"
#include "profile/paper_profiles.h"
#include "service/plan_service.h"
#include "service/sharded/sharded_service.h"
#include "trace/generator.h"
#include "trace/market.h"

namespace sompi {
namespace {

FailureEstimationConfig estimator(std::size_t horizon) {
  FailureEstimationConfig c;
  c.samples = 300;
  c.horizon_steps = horizon;
  return c;
}

SpotTrace spiky_trace(std::size_t steps, std::uint64_t seed) {
  Rng rng(seed);
  return generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), steps, 0.25, rng);
}

// True when `got` equals a model built fresh at its horizon, bit for bit.
bool equals_fresh(const FailureModel& got, const SpotTrace& history,
                  const std::vector<double>& bids, FailureEstimationConfig cfg) {
  cfg.horizon_steps = got.horizon();
  const FailureModel want(history, bids, cfg);
  if (got.bids() != want.bids()) return false;
  for (std::size_t b = 0; b < want.bid_count(); ++b) {
    if (got.expected_price(b) != want.expected_price(b) || got.mtbf(b) != want.mtbf(b))
      return false;
    for (std::size_t t = 0; t <= want.horizon(); ++t)
      if (got.survival(b, t) != want.survival(b, t)) return false;
  }
  return true;
}

const CircleGroupSpec kGroup{1, 2};
constexpr std::uint64_t kGrid = 7;

TEST(FailureModelCache, ServesViewsAndRebuildsOnlyForALongerHorizon) {
  FailureModelCache cache;
  const SpotTrace trace = spiky_trace(300, 1);
  const std::vector<double> bids = logarithmic_bid_grid(trace.max_price(), 5);
  FailureModelTally tally;

  const FailureModel first = cache.get(kGroup, kGrid, trace, bids, estimator(30), &tally);
  EXPECT_EQ(tally.built, 1u);
  EXPECT_EQ(tally.price_steps_read, trace.steps());
  // A shorter horizon is a view of the same tables.
  const FailureModel shorter = cache.get(kGroup, kGrid, trace, bids, estimator(20), &tally);
  EXPECT_EQ(tally.built, 1u);
  EXPECT_EQ(&shorter.bids(), &first.bids());
  EXPECT_TRUE(equals_fresh(shorter, trace, bids, estimator(20)));
  // A longer one rebuilds the entry at that horizon; the sums resume over
  // the same history, so they read nothing.
  const FailureModel longer = cache.get(kGroup, kGrid, trace, bids, estimator(45), &tally);
  EXPECT_EQ(tally.built, 2u);
  EXPECT_EQ(tally.price_steps_read, trace.steps());
  EXPECT_TRUE(equals_fresh(longer, trace, bids, estimator(45)));
  // ...and from then on serves the old horizon as a view of the new tables.
  const FailureModel again = cache.get(kGroup, kGrid, trace, bids, estimator(30), &tally);
  EXPECT_EQ(tally.built, 2u);
  EXPECT_EQ(&again.bids(), &longer.bids());
  EXPECT_TRUE(equals_fresh(again, trace, bids, estimator(30)));

  FailureModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, longer.table_bytes());

  // Another grid tag, or other estimator knobs, keep entries of their own.
  (void)cache.get(kGroup, kGrid + 1, trace, bids, estimator(30));
  FailureEstimationConfig reseeded = estimator(30);
  reseeded.seed += 1;
  (void)cache.get(kGroup, kGrid, trace, bids, reseeded);
  s = cache.stats();
  EXPECT_EQ(s.builds, 4u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(FailureModelCache, ANewHistoryResumesTheEntryAndAnOlderOneBuildsUncached) {
  FailureModelCache cache;
  const SpotTrace v1 = spiky_trace(200, 2);
  const std::vector<double> bids = logarithmic_bid_grid(v1.max_price(), 5);
  (void)cache.get(kGroup, kGrid, v1, bids, estimator(50));

  // The group's history moved on by three steps at or below its maximum (the
  // grid stays put): the build resumes the entry's sums over the new steps
  // only, at the entry's horizon, and replaces the entry.
  const SpotTrace v2 = v1.extended({v1.price(0), v1.min_price(), v1.price(1)});
  FailureModelTally tally;
  const FailureModel resumed = cache.get(kGroup, kGrid, v2, bids, estimator(20), &tally);
  EXPECT_EQ(tally.built, 1u);
  EXPECT_EQ(tally.price_steps_read, 3u);
  EXPECT_EQ(resumed.built_horizon(), 50u);
  EXPECT_TRUE(equals_fresh(resumed, v2, bids, estimator(20)));

  // A snapshot older than the entry builds uncached, from step 0, and leaves
  // the entry with the newer history.
  tally = {};
  const FailureModel old = cache.get(kGroup, kGrid, v1, bids, estimator(20), &tally);
  EXPECT_EQ(tally.built, 1u);
  EXPECT_EQ(tally.price_steps_read, v1.steps());
  EXPECT_TRUE(equals_fresh(old, v1, bids, estimator(20)));
  EXPECT_EQ(cache.stats().uncached, 1u);
  tally = {};
  (void)cache.get(kGroup, kGrid, v2, bids, estimator(50), &tally);
  EXPECT_EQ(tally.built, 0u);

  // A history the entry cannot prove to be a prefix — a forked lineage, or
  // a new maximum that moved the grid — is summed from zero and replaces it.
  const SpotTrace fork = v1.extended({0.0, 0.0});
  ASSERT_NE(fork.lineage(), v2.lineage());
  tally = {};
  EXPECT_TRUE(equals_fresh(cache.get(kGroup, kGrid, fork, bids, estimator(20), &tally), fork,
                           bids, estimator(20)));
  EXPECT_EQ(tally.price_steps_read, fork.steps());
  const SpotTrace higher = fork.extended({fork.max_price() * 2.0});
  const std::vector<double> moved = logarithmic_bid_grid(higher.max_price(), 5);
  tally = {};
  EXPECT_TRUE(equals_fresh(cache.get(kGroup, kGrid, higher, moved, estimator(20), &tally),
                           higher, moved, estimator(20)));
  EXPECT_EQ(tally.price_steps_read, higher.steps());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(FailureModelCache, ConcurrentCallersAtMixedHorizonsBuildEachHistoryOnce) {
  FailureModelCache cache;
  SpotTrace trace = spiky_trace(400, 3);
  const std::vector<double> bids = logarithmic_bid_grid(trace.max_price(), 6);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLongest = 12 + 7 * (kThreads - 1);
  // Prime the entry at the longest horizon any caller will ask for.
  (void)cache.get(kGroup, kGrid, trace, bids, estimator(kLongest));
  Rng rng(4);
  for (int round = 0; round < 25; ++round) {
    trace = trace.extended({trace.min_price(), trace.price(rng.uniform_index(trace.steps()))});
    const std::uint64_t before = cache.stats().builds;
    std::atomic<std::size_t> ready{0};
    std::vector<std::optional<FailureModel>> got(kThreads);
    std::vector<FailureModelTally> tallies(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[i].emplace(
            cache.get(kGroup, kGrid, trace, bids, estimator(12 + 7 * i), &tallies[i]));
      });
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(cache.stats().builds - before, 1u) << "round " << round;
    std::size_t built = 0, read = 0;
    for (std::size_t i = 0; i < kThreads; ++i) {
      built += tallies[i].built;
      read += tallies[i].price_steps_read;
      ASSERT_EQ(got[i]->horizon(), 12 + 7 * i);
      ASSERT_TRUE(equals_fresh(*got[i], trace, bids, estimator(kLongest)))
          << "round " << round << " thread " << i;
    }
    EXPECT_EQ(built, 1u);
    EXPECT_EQ(read, 2u);  // the two appended steps, once
  }
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Through the services.

OptimizerConfig tiny_config(std::size_t log_levels = 2) {
  OptimizerConfig c;
  c.max_candidates = 4;
  c.max_groups = 2;
  c.setup.log_levels = log_levels;
  c.setup.failure.samples = 100;
  c.ratio_bins = 16;
  return c;
}

PlanRequest request_for(const Catalog& catalog, const ExecTimeEstimator& est,
                        const AppProfile& app, double factor) {
  PlanRequest r;
  r.app = app;
  r.deadline_h = OnDemandSelector(&catalog, &est).baseline(r.app).t_h * factor;
  return r;
}

// One price step at or below each group's maximum, so its bid grid stays put.
std::vector<PriceUpdate> one_step_each(const Market& market,
                                       const std::vector<CircleGroupSpec>& groups, Rng& rng) {
  std::vector<PriceUpdate> updates;
  for (const CircleGroupSpec& g : groups) {
    const SpotTrace& trace = market.trace(g);
    updates.push_back(PriceUpdate{g, {trace.price(rng.uniform_index(trace.steps()))}});
  }
  return updates;
}

TEST(FailureModelCache, LongIngestKeepsOneEntryPerGroupAndGrid) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  MarketBoard board(generate_market(catalog, paper_market_profile(catalog), /*days=*/1.0,
                                    /*step_hours=*/0.25, /*seed=*/21));
  // Two services with different bid grids share one cache: two grids.
  auto models = std::make_shared<FailureModelCache>();
  ServiceConfig a, b;
  a.opt = tiny_config(2);
  b.opt = tiny_config(3);
  PlanService two_levels(&catalog, &est, &board, a, models);
  PlanService three_levels(&catalog, &est, &board, b, models);
  const std::vector<PlanRequest> tenants = {
      request_for(catalog, est, paper_profile("BT"), 4.0),
      request_for(catalog, est, paper_profile("SP"), 1.5)};
  const std::vector<CircleGroupSpec> groups = catalog.all_groups();
  const std::size_t bound = groups.size() * 2;

  Rng rng(22);
  FailureModelCache::Stats early;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    std::vector<CircleGroupSpec> dirty;
    for (std::size_t i = 0; i < 3; ++i) dirty.push_back(groups[rng.uniform_index(groups.size())]);
    board.ingest(one_step_each(*board.snapshot().market, dirty, rng));
    for (const PlanRequest& r : tenants) {
      ASSERT_NE(two_levels.serve(r).plan, nullptr);
      ASSERT_NE(three_levels.serve(r).plan, nullptr);
    }
    const FailureModelCache::Stats s = models->stats();
    ASSERT_LE(s.entries, bound) << "epoch " << epoch;
    if (epoch == 10) early = s;
  }
  // Entries are replaced, not accumulated: the count and the table bytes
  // stay where the first epochs left them while the history grew 1000 steps.
  const FailureModelCache::Stats late = models->stats();
  EXPECT_EQ(late.entries, early.entries);
  EXPECT_EQ(late.bytes, early.bytes);
  EXPECT_GT(late.builds, early.builds);
}

TEST(FailureModelCache, ArtifactsChargeTheModelHandleNotItsTables) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  const Market market = generate_market(catalog, paper_market_profile(catalog), 1.0, 0.25, 5);
  CostTableStore store;
  const GroupSetup setup = SetupBuilder(&catalog, &est).build(
      paper_profile("BT"), {0, 0}, market, tiny_config().setup, &store.models());
  store.store("a", {0, 0}, 1, std::make_shared<GroupArtifact>(1, setup));
  store.store("b", {0, 0}, 1, std::make_shared<GroupArtifact>(1, setup));
  EXPECT_EQ(store.stats().bytes, 2 * sizeof(GroupArtifact));
  EXPECT_EQ(store.models().stats().entries, 1u);
  EXPECT_EQ(store.models().stats().bytes, setup.failure.table_bytes());
}

TEST(FailureModelCacheTier, SixteenTenantsOnFourShardsBuildOneModelPerDirtyGroup) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  const Market initial =
      generate_market(catalog, paper_market_profile(catalog), 2.0, 0.25, /*seed=*/23);
  ShardedConfig config;
  config.shards = 4;
  config.salt = 0xCAC4EULL;
  config.service.opt = tiny_config();
  ShardedPlanService tier(&catalog, &est, initial, config);

  // The paper's eight evaluation apps at its loose and tight deadlines.
  std::vector<AppProfile> apps = paper_profiles();
  apps.push_back(lammps_profile(32));
  apps.push_back(lammps_profile(128));
  std::vector<PlanRequest> tenants;
  for (const AppProfile& app : apps)
    for (const double factor : {1.5, 1.05}) tenants.push_back(request_for(catalog, est, app, factor));
  // The groups some tenant can finish in time: the ones its setups build.
  std::vector<CircleGroupSpec> used;
  for (const CircleGroupSpec& g : catalog.all_groups()) {
    const InstanceType& type = catalog.type(g.type_index);
    const std::string& zone = catalog.zone(g.zone_index).name;
    for (const PlanRequest& t : tenants)
      if (est.hours(t.app, type, zone) <= t.deadline_h) {
        used.push_back(g);
        break;
      }
  }
  ASSERT_GE(used.size(), 4u);

  // Serves every tenant from 4 threads; returns the summed build counters.
  const auto serve_all = [&] {
    std::atomic<std::size_t> next{0}, built{0}, read{0}, missing{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < tenants.size();) {
          const PlanResponse r = tier.serve(tenants[i]);
          if (r.plan == nullptr) {
            missing.fetch_add(1);
            continue;
          }
          built.fetch_add(r.plan->stats.failure_models_built);
          read.fetch_add(r.plan->stats.price_steps_read);
        }
      });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(missing.load(), 0u);
    return std::make_pair(built.load(), read.load());
  };
  (void)serve_all();  // fill: every tenant's first solve

  Rng rng(24);
  for (std::size_t epoch = 0; epoch < 8; ++epoch) {
    const std::size_t d = 1 + epoch % 4;
    std::vector<CircleGroupSpec> dirty;
    for (std::size_t j = 0; j < d; ++j) dirty.push_back(used[(epoch * 4 + j) % used.size()]);
    tier.fanout().ingest(one_step_each(*tier.board(0).snapshot().market, dirty, rng));
    const std::uint64_t before = tier.stats().total.failure_models_built;
    const auto [built, read] = serve_all();
    EXPECT_EQ(built, d) << "epoch " << epoch;
    EXPECT_EQ(read, d) << "epoch " << epoch;
    EXPECT_EQ(tier.stats().total.failure_models_built - before, d);
  }
  // Every shard's warm plan still equals the cold solve at the final epoch.
  for (const PlanRequest& t : tenants) {
    const PlanResponse warm = tier.serve(t);
    const MarketSnapshot snap = tier.board(tier.home_shard(t)).snapshot();
    ASSERT_NE(warm.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*warm.plan),
              plan_fingerprint(tier.shard(tier.home_shard(t)).solve(canonicalized(t),
                                                                     *snap.market)));
  }
  EXPECT_LE(tier.model_cache_stats().entries, catalog.all_groups().size());
}

}  // namespace
}  // namespace sompi
