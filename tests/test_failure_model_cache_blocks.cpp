// Tests of the cost-table blocks a FailureModelCache shares (DESIGN.md §14):
// blocks a warm solve takes from the cache equal a fresh φ and
// GroupCostTable bit for bit across a deadline sweep; blocks are stored only
// for the entry's own model and leave with it; the byte cap over a stream of
// distinct apps and deadlines, least recently used first; store artifacts
// charged the block's handle; cold solves never reaching the blocks; and a
// 4-shard tier whose tenants, one app at eight deadlines, derive each block
// once.
#include "core/failure_model_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "profile/paper_profiles.h"
#include "service/plan_service.h"
#include "service/sharded/sharded_service.h"
#include "support/oracle_generators.h"
#include "trace/market.h"

namespace sompi {
namespace {

OptimizerConfig tiny_config() {
  OptimizerConfig c;
  c.max_candidates = 4;
  c.max_groups = 2;
  c.setup.log_levels = 3;
  c.setup.failure.samples = 100;
  c.ratio_bins = 16;
  return c;
}

std::vector<CkptPolicy> effective_policies(const OptimizerConfig& config) {
  return config.ckpt_policies.empty() ? std::vector<CkptPolicy>{CkptPolicy{}}
                                      : config.ckpt_policies;
}

/// The block a cold solve derives for `g`: a fresh φ per (policy, bid),
/// through the single-policy choose(), then a fresh GroupCostTable.
GroupCostTable fresh_block(const GroupSetup& g, const OnDemandChoice& od,
                           const OptimizerConfig& config) {
  CheckpointPlanner::Config phi;
  phi.mode = config.phi_mode;
  phi.step_hours = config.setup.step_hours;
  phi.ratio_bins = config.ratio_bins;
  const CheckpointPlanner planner(phi);
  const std::vector<CkptPolicy> policies = effective_policies(config);
  const std::size_t bids = g.failure.bid_count();
  std::vector<ChoiceSpec> choices(policies.size() * bids);
  for (std::size_t p = 0; p < policies.size(); ++p)
    for (std::size_t b = 0; b < bids; ++b)
      choices[p * bids + b] = ChoiceSpec{
          b, planner.choose(g, b, od, policies[p].o_scale, policies[p].r_scale),
          policies[p].o_scale, policies[p].r_scale, p};
  return GroupCostTable(g, od, {config.setup.step_hours, config.ratio_bins}, choices);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Values on which two blocks differ; 0 means bit-identical.
std::size_t block_mismatches(const GroupCostTable& got, const GroupCostTable& want) {
  if (got.choice_count() != want.choice_count() || got.ratio_bins() != want.ratio_bins())
    return 1;
  std::size_t m = (got.max_w_ceil() != want.max_w_ceil()) + (got.bytes() != want.bytes()) +
                  !same_bits(got.min_spot_term(), want.min_spot_term());
  for (std::size_t j = 0; j < want.ratio_bins(); ++j)
    m += !same_bits(got.min_ratio_tail()[j], want.min_ratio_tail()[j]);
  for (std::size_t c = 0; c < want.choice_count(); ++c) {
    const GroupCostTable::Cell& a = got.cell(c);
    const GroupCostTable::Cell& b = want.cell(c);
    m += a.choice.bid_index != b.choice.bid_index || a.choice.f_steps != b.choice.f_steps ||
         a.choice.policy_index != b.choice.policy_index ||
         !same_bits(a.choice.o_scale, b.choice.o_scale) ||
         !same_bits(a.choice.r_scale, b.choice.r_scale);
    m += a.f_steps != b.f_steps || a.w_ceil != b.w_ceil || !same_bits(a.wall, b.wall) ||
         !same_bits(a.spot_term, b.spot_term) ||
         !same_bits(a.one_minus_complete, b.one_minus_complete) || a.survives != b.survives;
    if (a.choice.policy_index == b.choice.policy_index && a.f_steps == b.f_steps)
      m += !same_bits(got.worst_h(a.choice.policy_index, a.f_steps),
                      want.worst_h(b.choice.policy_index, b.f_steps));
    if (a.w_ceil != b.w_ceil) continue;
    for (std::size_t t = 0; t < b.w_ceil; ++t) m += !same_bits(a.life[t], b.life[t]);
    for (std::size_t j = 0; j < want.ratio_bins(); ++j) m += !same_bits(a.tail[j], b.tail[j]);
  }
  return m;
}

/// The paper catalog over random histories from the failure-model oracle's
/// generators (ties, zeros, flat runs), each with some positive price.
Market oracle_market(const Catalog& catalog, Rng& rng) {
  std::vector<SpotTrace> traces;
  for (std::size_t g = 0; g < catalog.all_groups().size(); ++g) {
    std::vector<double> prices = random_prices(20 + rng.uniform_index(280), rng);
    if (*std::max_element(prices.begin(), prices.end()) <= 0.0) prices.front() = 0.02;
    traces.emplace_back(0.25, std::move(prices));
  }
  return Market(&catalog, std::move(traces));
}

PlanRequest request_for(const Catalog& catalog, const ExecTimeEstimator& est,
                        const AppProfile& app, double factor) {
  PlanRequest r;
  r.app = app;
  r.deadline_h = OnDemandSelector(&catalog, &est).baseline(r.app).t_h * factor;
  return r;
}

TEST(FailureModelCacheBlockOracle, SharedBlocksEqualFreshPhiAndTablesAcrossADeadlineSweep) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  const OnDemandSelector selector(&catalog, &est);
  const std::vector<double> factors = {1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0};
  Rng rng(0x7AB1E);
  std::size_t checked = 0, shared = 0, switches = 0;
  for (int world = 0; world < 3; ++world) {
    // Oracle histories, and one paper market, where spot and on-demand
    // costs are of one order, so φ moves with the on-demand choice.
    const Market market = world < 2 ? oracle_market(catalog, rng)
                                    : generate_market(catalog, paper_market_profile(catalog),
                                                      2.0, 0.25, /*seed=*/37);
    const auto versions =
        std::make_shared<const std::vector<std::uint64_t>>(catalog.all_groups().size(), 0);
    for (const bool wrap : {true, false}) {
      for (const bool multilevel : {false, true}) {
        OptimizerConfig config = tiny_config();
        config.setup.failure.wrap = wrap;
        config.setup.failure.seed = rng();
        if (multilevel)
          config.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                                  CkptPolicy::cache_xor_s3()};
        const SompiOptimizer opt(&catalog, &est, config);
        CostTableStore store;
        std::vector<AppProfile> apps = paper_profiles();
        apps.push_back(lammps_profile(32));
        for (const AppProfile& app : apps) {
          const std::string& name = app.name;
          std::set<std::size_t> od_types;
          for (const double factor : factors) {
            const double deadline = selector.baseline(app).t_h * factor;
            ReplanContext ctx;
            ctx.store = &store;
            ctx.scope = name + "@" + std::to_string(factor);
            ctx.versions = versions;
            const Plan warm = opt.optimize(app, market, deadline, &ctx);
            ASSERT_EQ(plan_fingerprint(warm), plan_fingerprint(opt.optimize(app, market, deadline)))
                << name << " @" << factor;
            shared += warm.stats.tables_shared;
            od_types.insert(warm.od.type_index);
            const std::uint64_t chash = replan_config_hash(config, app, warm.od, deadline);
            for (const CircleGroupSpec& spec : catalog.all_groups()) {
              const auto art = store.lookup(ctx.scope, spec, 0, chash);
              if (art == nullptr || !art->has_derived()) continue;
              ASSERT_EQ(block_mismatches(*art->table, fresh_block(art->setup, warm.od, config)),
                        0u)
                  << name << " @" << factor << " wrap " << wrap << " multilevel " << multilevel
                  << " group " << spec.type_index << "/" << spec.zone_index;
              ++checked;
            }
          }
          switches += od_types.size() - 1;
        }
      }
    }
  }
  // The sweep shares blocks between deadlines and crosses on-demand switch
  // points, where the slot (and so the block) changes.
  EXPECT_GT(checked, 200u);
  EXPECT_GT(shared, 100u);
  EXPECT_GT(switches, 0u);
}

/// One hand-built group over `prices`, and a block derived from it.
struct Slotted {
  GroupSetup group;
  std::shared_ptr<const GroupCostTable> block;
};

FailureEstimationConfig slotted_estimation(std::size_t horizon) {
  FailureEstimationConfig fec;
  fec.samples = 50;
  fec.horizon_steps = horizon;
  return fec;
}

/// The group over `model`, with a block of `choices` (the first two bids
/// at F = 2 and 3 when empty).
Slotted slotted(FailureModel model, const OnDemandChoice& od,
                std::vector<ChoiceSpec> choices = {{0, 2}, {1, 3}}) {
  Slotted s{GroupSetup{.spec = {0, 0},
                       .instances = 4,
                       .t_steps = 6,
                       .o_steps = 0.5,
                       .r_steps = 0.5,
                       .failure = std::move(model)},
            nullptr};
  s.block = std::make_shared<const GroupCostTable>(
      s.group, od, CostModel::Config{.step_hours = 0.25, .ratio_bins = 16}, choices);
  return s;
}

Slotted slotted(const SpotTrace& history, std::size_t horizon, const OnDemandChoice& od) {
  return slotted(FailureModel(history, {0.02, 0.04}, slotted_estimation(horizon)), od);
}

TableBlockKey slotted_key(const OnDemandChoice& od) {
  return TableBlockKey(od, {CkptPolicy{}}, CheckpointPlanner::Config{}, CostModel::Config{});
}

TEST(FailureModelCacheBlock, BlocksLeaveWithTheModelTheyCameFrom) {
  const OnDemandChoice od{.type_index = 0, .t_h = 2.0, .instances = 4, .rate_usd_h = 1.0};
  const CircleGroupSpec spec{0, 0};
  const std::vector<double> bids = {0.02, 0.04};
  const FailureEstimationConfig fec = slotted_estimation(12);
  Rng rng(0x5107);
  const SpotTrace old_history(0.25, random_prices(64, rng));
  const SpotTrace new_history = old_history.extended({0.03, 0.01});
  FailureModelCache cache;
  const Slotted older = slotted(cache.get(spec, 0, old_history, bids, fec), od);
  TableBlockKey key = slotted_key(od);
  key.for_group(older.group);

  // `block` through the cache; the derivation returns `made` and counts.
  std::size_t derived = 0;
  const auto block = [&](const FailureModel& model, const TableBlockKey& k,
                         const std::shared_ptr<const GroupCostTable>& made) {
    const std::size_t before = derived;
    bool shared = false;
    const auto got = cache.block(
        spec, 0, fec, model, k,
        [&] {
          ++derived;
          return made;
        },
        &shared);
    EXPECT_EQ(shared, derived == before);
    return got;
  };
  // A model of the same history built outside the cache derives its own
  // block and stores nothing.
  const Slotted outside = slotted(old_history, 12, od);
  EXPECT_EQ(block(outside.group.failure, key, outside.block), outside.block);
  EXPECT_EQ(derived, 1u);
  EXPECT_EQ(cache.stats().blocks, 0u);
  // The entry's model stores its block; a copy or another view of that
  // model at the same horizon shares it.
  EXPECT_EQ(block(older.group.failure, key, older.block), older.block);
  EXPECT_EQ(derived, 2u);
  const Slotted other = slotted(older.group.failure, od);
  EXPECT_EQ(block(older.group.failure.view(12), key, other.block), older.block);
  EXPECT_EQ(derived, 2u);
  // Another horizon is another key.
  TableBlockKey shorter = slotted_key(od);
  shorter.for_group(slotted(older.group.failure.view(11), od).group);
  EXPECT_FALSE(shorter == key);
  FailureModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.blocks_shared, 1u);
  EXPECT_EQ(s.blocks_derived, 2u);

  // A newer history replaces the entry's model, and its blocks go with it.
  const Slotted newer = slotted(cache.get(spec, 0, new_history, bids, fec), od);
  s = cache.stats();
  EXPECT_EQ(s.blocks, 0u);
  EXPECT_EQ(s.block_bytes, 0u);
  // A solve of the older snapshot derives its block and stores nothing.
  EXPECT_EQ(block(older.group.failure, key, older.block), older.block);
  EXPECT_EQ(derived, 3u);
  EXPECT_EQ(cache.stats().blocks, 0u);
  EXPECT_EQ(block(newer.group.failure, key, newer.block), newer.block);
  EXPECT_EQ(derived, 4u);
  EXPECT_EQ(block(newer.group.failure, key, other.block), newer.block);
  EXPECT_EQ(cache.stats().blocks, 1u);

  // Another on-demand choice, or another app setup, is another key.
  OnDemandChoice dearer = od;
  dearer.rate_usd_h = 1.5;
  EXPECT_FALSE(slotted_key(dearer).for_group(newer.group) == key);
  GroupSetup wider = newer.group;
  wider.instances = 8;
  EXPECT_FALSE(slotted_key(od).for_group(wider) == key);
  EXPECT_TRUE(slotted_key(od).for_group(newer.group) == key);
}

TEST(FailureModelCacheBlock, StaysUnderItsCapOverDistinctAppsAndDeadlines) {
  // One large block stored under a stream of distinct keys — on-demand
  // choices (what a deadline changes) and app sizes — for two groups; each
  // key is charged the block's bytes, so the stream passes the cap.
  const OnDemandChoice od{.type_index = 0, .t_h = 2.0, .instances = 4, .rate_usd_h = 1.0};
  const std::vector<double> bids = {0.02, 0.04};
  const FailureEstimationConfig fec = slotted_estimation(12);
  Rng rng(0xCA9);
  FailureModelCache cache;
  std::vector<Slotted> groups;
  for (std::size_t zone = 0; zone < 2; ++zone) {
    const SpotTrace history(0.25, random_prices(64, rng));
    const FailureModel model = cache.get({0, zone}, 0, history, bids, fec);
    std::vector<ChoiceSpec> choices;
    for (int i = 0; i < 3000; ++i) choices.push_back({std::size_t(i % 2), 1 + i % 6});
    groups.push_back(slotted(model, od, choices));
  }
  const std::size_t block_bytes = groups[0].block->bytes();
  ASSERT_GT(block_bytes, 64u << 10);
  const std::size_t fit = FailureModelCache::kMaxBlockBytes / block_bytes;

  const auto put = [&](std::size_t i) {
    OnDemandChoice deadline = od;
    deadline.rate_usd_h = 1.0 + 0.01 * static_cast<double>(i / 2);
    GroupSetup app = groups[i % 2].group;
    app.instances = 4 + static_cast<int>(i % 5);
    bool shared = false;
    (void)cache.block({0, i % 2}, 0, fec, app.failure, slotted_key(deadline).for_group(app),
                      [&] { return groups[i % 2].block; }, &shared);
    return shared;
  };
  std::size_t stored = 0;
  for (std::size_t i = 0; i < 3 * fit; ++i) {
    EXPECT_FALSE(put(i)) << i;
    ++stored;
    // Keep the first key in use: the eviction takes the least recently
    // used block of either group, never the one just touched.
    if (i > 0) {
      EXPECT_TRUE(put(0)) << i;
    }
    const FailureModelCache::Stats s = cache.stats();
    ASSERT_LE(s.block_bytes, FailureModelCache::kMaxBlockBytes) << i;
    ASSERT_LE(s.blocks, fit) << i;
  }
  const FailureModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.blocks_evicted + s.blocks, stored);
  EXPECT_GE(s.blocks_evicted, 2 * fit);
  EXPECT_GT(s.blocks, fit / 2);
  EXPECT_TRUE(put(0));
  EXPECT_TRUE(put(3 * fit - 1));  // the newest stays
  EXPECT_FALSE(put(1));           // an early one went
}

TEST(FailureModelCacheBlock, ArtifactsChargeTheBlockHandleNotItsTables) {
  const OnDemandChoice od{.type_index = 0, .t_h = 2.0, .instances = 4, .rate_usd_h = 1.0};
  Rng rng(0xB10C);
  const Slotted s = slotted(SpotTrace(0.25, random_prices(64, rng)), 12, od);
  auto art = std::make_shared<GroupArtifact>(1, s.group);
  art->table = s.block;
  ASSERT_EQ(art->bytes(), sizeof(GroupArtifact));
  CostTableStore store;
  std::size_t want = 0;
  for (int scope = 0; scope < 5; ++scope) {
    store.store(std::to_string(scope), {0, 0}, 1, art);
    want += CostTableStore::entry_bytes(*art) + CostTableStore::scope_bytes(std::to_string(scope));
  }
  EXPECT_EQ(store.stats().bytes, want);
  EXPECT_LT(CostTableStore::entry_bytes(*art), s.block->bytes());
}

TEST(FailureModelCacheBlock, ColdSolvesNeverReachTheBlocks) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  MarketBoard board(generate_market(catalog, paper_market_profile(catalog), 1.0, 0.25, 33));
  auto models = std::make_shared<FailureModelCache>();
  ServiceConfig sc;
  sc.opt = tiny_config();
  PlanService service(&catalog, &est, &board, sc, models);
  const PlanRequest request = canonicalized(request_for(catalog, est, paper_profile("BT"), 2.0));
  const Plan cold = service.solve(request, *board.snapshot().market);
  EXPECT_EQ(cold.stats.tables_shared, 0u);
  FailureModelCache::Stats s = models->stats();
  EXPECT_EQ(s.blocks_shared + s.blocks_derived + s.blocks, 0u);
  // The warm path of the same request does use it.
  ASSERT_NE(service.serve(request).plan, nullptr);
  s = models->stats();
  EXPECT_GT(s.blocks_derived, 0u);
  EXPECT_GT(s.blocks, 0u);
}

TEST(FailureModelCacheBlockTier, OneAppAtEightDeadlinesOnFourShardsDerivesEachBlockOnce) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  const Market initial =
      generate_market(catalog, paper_market_profile(catalog), 2.0, 0.25, /*seed=*/35);
  ShardedConfig config;
  config.shards = 4;
  config.salt = 0x7AB1ULL;
  config.service.opt = tiny_config();
  ShardedPlanService tier(&catalog, &est, initial, config);

  // Deadlines every group can meet, so the tenants' kept candidates — and,
  // with one on-demand choice, their blocks' slots — coincide.
  const AppProfile app = paper_profile("BT");
  const std::vector<CircleGroupSpec> groups = catalog.all_groups();
  double loosest = 1.0;
  for (const CircleGroupSpec& g : groups)
    loosest = std::max(loosest, est.hours(app, catalog.type(g.type_index),
                                          catalog.zone(g.zone_index).name) /
                                    OnDemandSelector(&catalog, &est).baseline(app).t_h);
  std::vector<PlanRequest> tenants;
  for (const double factor : {1.05, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0})
    tenants.push_back(request_for(catalog, est, app, 1.3 * loosest * factor));

  // Serves every tenant from 4 threads; returns (tables built, tables shared).
  const auto serve_all = [&] {
    std::atomic<std::size_t> next{0}, built{0}, shared{0}, missing{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < tenants.size();) {
          const PlanResponse r = tier.serve(tenants[i]);
          if (r.plan == nullptr) {
            missing.fetch_add(1);
            continue;
          }
          built.fetch_add(r.plan->stats.tables_built);
          shared.fetch_add(r.plan->stats.tables_shared);
        }
      });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(missing.load(), 0u);
    return std::make_pair(built.load(), shared.load());
  };
  const auto dirty_epoch = [&](std::size_t epoch, std::size_t dirty) {
    std::vector<PriceUpdate> updates;
    for (std::size_t j = 0; j < dirty; ++j) {
      const CircleGroupSpec g = groups[(epoch * 3 + j) % groups.size()];
      const SpotTrace& trace = tier.board(0).snapshot().market->trace(g);
      updates.push_back(PriceUpdate{g, {trace.price(trace.steps() / 2)}});
    }
    tier.fanout().ingest(updates);
  };

  (void)serve_all();  // fill
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    dirty_epoch(epoch, 3);
    const auto [built, shared] = serve_all();
    EXPECT_LE(shared, built) << "epoch " << epoch;
  }
  EXPECT_LE(tier.model_cache_stats().blocks, groups.size());

  // One tenant at a time, every group dirty: the first tenant derives its
  // blocks, every later one takes all of them from the cache.
  dirty_epoch(6, groups.size());
  std::size_t first_built = 0;
  std::set<std::size_t> od_types;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const PlanResponse r = tier.serve(tenants[i]);
    ASSERT_NE(r.plan, nullptr);
    od_types.insert(r.plan->od.type_index);
    if (i == 0) {
      first_built = r.plan->stats.tables_built;
      EXPECT_EQ(r.plan->stats.tables_shared, 0u);
    } else {
      EXPECT_EQ(r.plan->stats.tables_built, first_built) << "tenant " << i;
      EXPECT_EQ(r.plan->stats.tables_shared, first_built) << "tenant " << i;
    }
  }
  EXPECT_GT(first_built, 0u);
  EXPECT_EQ(od_types.size(), 1u);

  // Every shard's warm plan still equals the cold solve at the final epoch.
  for (const PlanRequest& t : tenants) {
    const PlanResponse warm = tier.serve(t);
    const MarketSnapshot snap = tier.board(tier.home_shard(t)).snapshot();
    ASSERT_NE(warm.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*warm.plan),
              plan_fingerprint(tier.shard(tier.home_shard(t)).solve(canonicalized(t),
                                                                     *snap.market)));
  }
}

}  // namespace
}  // namespace sompi
