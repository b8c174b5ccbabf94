// Warm-start re-optimization tests (DESIGN.md §14): the replan config hash's
// cover/ignore split, the CostTableStore's exact-match invalidation and
// byte-cap eviction, artifact sharing across optimizer instances, the
// warm-vs-cold differential oracle at several thread counts, the
// PlanService re-plan counters, delta-precise feed publication conservation,
// and the MarketBoard's per-group version semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_table_store.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "core/setup_builder.h"
#include "feed/pipeline.h"
#include "profile/paper_profiles.h"
#include "service/plan_service.h"
#include "trace/market.h"

namespace sompi {
namespace {

OptimizerConfig tiny_config() {
  OptimizerConfig c;
  c.max_candidates = 3;
  c.max_groups = 2;
  c.setup.log_levels = 3;
  c.setup.failure.samples = 400;
  c.ratio_bins = 32;
  return c;
}

// ---------------------------------------------------------------------------
// replan_config_hash: content knobs in, selection-only knobs out.

class ReplanHashTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  AppProfile app_ = paper_profile("BT");
  double deadline_h_ = OnDemandSelector(&catalog_, &est_).baseline(app_).t_h * 1.5;
  OnDemandChoice od_ = OnDemandSelector(&catalog_, &est_).select(app_, deadline_h_, 0.2);
};

TEST_F(ReplanHashTest, DeterministicAndCoversContentKnobs) {
  const OptimizerConfig base = tiny_config();
  const std::uint64_t h = replan_config_hash(base, app_, od_, deadline_h_);
  EXPECT_EQ(h, replan_config_hash(base, app_, od_, deadline_h_));

  // Every knob that shapes artifact CONTENT must move the hash: the deadline
  // (guard tables), the bid grid, the failure estimator, the integration
  // resolution, and the policy set.
  EXPECT_NE(h, replan_config_hash(base, app_, od_, deadline_h_ * 1.01));
  OptimizerConfig c = base;
  c.setup.log_levels = base.setup.log_levels + 1;  // different bid grid
  EXPECT_NE(h, replan_config_hash(c, app_, od_, deadline_h_));
  c = base;
  c.setup.failure.samples = base.setup.failure.samples + 1;
  EXPECT_NE(h, replan_config_hash(c, app_, od_, deadline_h_));
  c = base;
  c.ratio_bins = base.ratio_bins * 2;
  EXPECT_NE(h, replan_config_hash(c, app_, od_, deadline_h_));
  c = base;
  c.worst_case_guard = !base.worst_case_guard;
  EXPECT_NE(h, replan_config_hash(c, app_, od_, deadline_h_));
  c = base;
  c.ckpt_policies = {CkptPolicy{}, CkptPolicy{}};
  EXPECT_NE(h, replan_config_hash(c, app_, od_, deadline_h_));
}

TEST_F(ReplanHashTest, IgnoresSelectionOnlyKnobs) {
  // The candidate/subset bounds change which work runs, never what any
  // per-group artifact contains — two configs differing only there must
  // share a store.
  const OptimizerConfig base = tiny_config();
  const std::uint64_t h = replan_config_hash(base, app_, od_, deadline_h_);
  OptimizerConfig c = base;
  c.max_candidates = 1;
  c.max_groups = 1;
  c.enumerate_smaller_subsets = false;
  EXPECT_EQ(h, replan_config_hash(c, app_, od_, deadline_h_));
}

TEST_F(ReplanHashTest, EmptyPolicyListHashesAsDegenerateS3) {
  OptimizerConfig empty = tiny_config();
  empty.ckpt_policies = {};
  OptimizerConfig degenerate = tiny_config();
  degenerate.ckpt_policies = {CkptPolicy{}};
  EXPECT_EQ(replan_config_hash(empty, app_, od_, deadline_h_),
            replan_config_hash(degenerate, app_, od_, deadline_h_));
}

// ---------------------------------------------------------------------------
// CostTableStore: exact-match invalidation and byte-cap eviction.

class CostTableStoreTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/1.0,
                                   /*step_hours=*/0.25, /*seed=*/13);
  AppProfile app_ = paper_profile("BT");

  std::shared_ptr<GroupArtifact> artifact(std::uint64_t version) {
    SetupBuilder builder(&catalog_, &est_);
    SetupConfig cfg = tiny_config().setup;
    cfg.failure.samples = 64;  // keep the Monte-Carlo cheap: only keys matter
    return std::make_shared<GroupArtifact>(version,
                                           builder.build(app_, {0, 0}, market_, cfg));
  }
};

TEST_F(CostTableStoreTest, ExactVersionMatchRequiredInBothDirections) {
  CostTableStore store;
  const CircleGroupSpec spec{0, 0};
  store.store("scope", spec, /*config_hash=*/7, artifact(/*version=*/5));
  EXPECT_NE(store.lookup("scope", spec, 5, 7), nullptr);

  // A NEWER version invalidates, and so does an OLDER one — after a version
  // wraparound/reset the stored stamp is ahead of the live one, and a stale
  // hit there would serve tables for a different history.
  EXPECT_EQ(store.lookup("scope", spec, 6, 7), nullptr);
  CostTableStore::Stats s = store.stats();
  EXPECT_EQ(s.invalidated, 1u);
  EXPECT_EQ(s.entries, 0u);  // mismatch drops the entry and releases its bytes
  EXPECT_EQ(s.bytes, 0u);
  store.store("scope", spec, 7, artifact(6));
  EXPECT_EQ(store.lookup("scope", spec, 5, 7), nullptr);
  EXPECT_EQ(store.stats().invalidated, 2u);
}

TEST_F(CostTableStoreTest, ConfigHashMismatchInvalidates) {
  // A changed bid grid reaches the store as a changed config hash: the old
  // artifact must not survive even though the history version matches.
  CostTableStore store;
  const CircleGroupSpec spec{0, 0};
  store.store("scope", spec, /*config_hash=*/100, artifact(3));
  EXPECT_EQ(store.lookup("scope", spec, 3, /*config_hash=*/200), nullptr);
  EXPECT_EQ(store.stats().invalidated, 1u);
  EXPECT_EQ(store.lookup("scope", spec, 3, 100), nullptr);  // dropped, plain miss
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(CostTableStoreTest, ByteCapEvictsColdScopesNeverTheTouchedOne) {
  CostTableStore store(CostTableStore::Config{/*max_bytes=*/1});
  store.store("a", {0, 0}, 1, artifact(1));
  store.note_plan("a", std::make_shared<const Plan>());
  EXPECT_EQ(store.stats().scopes, 1u);  // over cap, but the touched scope stays
  EXPECT_EQ(store.stats().evictions, 0u);

  store.store("b", {0, 0}, 1, artifact(1));
  const CostTableStore::Stats s = store.stats();
  EXPECT_EQ(s.scopes, 1u);  // "a" evicted wholesale, "b" survives
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(store.lookup("a", {0, 0}, 1, 1), nullptr);
  EXPECT_EQ(store.last_plan("a"), nullptr);  // the incumbent dies with its scope
  EXPECT_NE(store.lookup("b", {0, 0}, 1, 1), nullptr);
}

TEST_F(CostTableStoreTest, ClearDropsScopesButKeepsMonotoneCounters) {
  CostTableStore store;
  store.store("scope", {0, 0}, 1, artifact(1));
  EXPECT_NE(store.lookup("scope", {0, 0}, 1, 1), nullptr);
  store.clear();
  const CostTableStore::Stats s = store.stats();
  EXPECT_EQ(s.scopes, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.hits, 1u);
}

// ---------------------------------------------------------------------------
// Warm solves: artifact sharing, invalidation granularity, bit-identity.

class WarmStartTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/2.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  MarketBoard board_{market_};
  AppProfile app_ = paper_profile("BT");
  double deadline_h_ = OnDemandSelector(&catalog_, &est_).baseline(app_).t_h * 1.5;

  ReplanContext context(CostTableStore* store, const MarketSnapshot& snap,
                        std::shared_ptr<const Plan> incumbent = nullptr) const {
    ReplanContext ctx;
    ctx.store = store;
    ctx.scope = "scope";
    ctx.versions = snap.versions;
    ctx.incumbent = std::move(incumbent);
    return ctx;
  }
};

TEST_F(WarmStartTest, ArtifactsSharedAcrossOptimizerConfigInstances) {
  // Two solver instances built from equal configs share one store: the
  // second instance's solve rebuilds nothing and still lands on the
  // bit-identical plan, with the incumbent seed accepted.
  CostTableStore store;
  const MarketSnapshot snap = board_.snapshot();
  const OptimizerConfig config = tiny_config();

  const Plan cold = SompiOptimizer(&catalog_, &est_, config).optimize(app_, *snap.market,
                                                                      deadline_h_);
  ReplanContext fill = context(&store, snap);
  const Plan first = SompiOptimizer(&catalog_, &est_, config).optimize(app_, *snap.market,
                                                                       deadline_h_, &fill);
  EXPECT_EQ(first.stats.tables_reused, 0u);
  EXPECT_GT(first.stats.tables_built, 0u);
  EXPECT_EQ(first.stats.warm_seeds, 0u);  // no incumbent offered

  ReplanContext warm = context(&store, snap, std::make_shared<const Plan>(first));
  const Plan second = SompiOptimizer(&catalog_, &est_, config).optimize(app_, *snap.market,
                                                                        deadline_h_, &warm);
  EXPECT_EQ(second.stats.tables_built, 0u);
  EXPECT_EQ(second.stats.tables_reused, first.stats.tables_built);
  EXPECT_EQ(second.stats.warm_seeds, cold.uses_spot() ? 1u : 0u);
  EXPECT_EQ(plan_fingerprint(first), plan_fingerprint(cold));
  EXPECT_EQ(plan_fingerprint(second), plan_fingerprint(cold));
}

TEST_F(WarmStartTest, DirtyGroupsInvalidatePreciselyAndPlansStayColdIdentical) {
  CostTableStore store;
  const SompiOptimizer opt(&catalog_, &est_, tiny_config());

  MarketSnapshot snap = board_.snapshot();
  ReplanContext fill = context(&store, snap);
  const Plan first = opt.optimize(app_, *snap.market, deadline_h_, &fill);
  const std::uint64_t span = first.stats.tables_built;
  ASSERT_GT(span, 0u);

  // One dirty group: at most one table rebuilds (the dirty group, if it is
  // still a kept candidate; a ranking flip can at most swap one slot), the
  // span is conserved, and the plan is bit-identical to the cold solve of
  // the new market.
  board_.ingest({PriceUpdate{{0, 0}, {0.31, 0.29}}});
  snap = board_.snapshot();
  ReplanContext delta = context(&store, snap, std::make_shared<const Plan>(first));
  const Plan warm = opt.optimize(app_, *snap.market, deadline_h_, &delta);
  EXPECT_EQ(warm.stats.tables_reused + warm.stats.tables_built, span);
  EXPECT_GE(warm.stats.tables_reused, span - 1);
  const Plan cold = opt.optimize(app_, *snap.market, deadline_h_);
  EXPECT_EQ(plan_fingerprint(warm), plan_fingerprint(cold));

  // Every group dirty: nothing survives invalidation.
  std::vector<PriceUpdate> all;
  for (const CircleGroupSpec& g : catalog_.all_groups())
    all.push_back(PriceUpdate{g, {0.4}});
  board_.ingest(all);
  snap = board_.snapshot();
  ReplanContext storm = context(&store, snap, std::make_shared<const Plan>(warm));
  const Plan rebuilt = opt.optimize(app_, *snap.market, deadline_h_, &storm);
  EXPECT_EQ(rebuilt.stats.tables_reused, 0u);
  EXPECT_EQ(rebuilt.stats.tables_built, span);
  EXPECT_EQ(plan_fingerprint(rebuilt),
            plan_fingerprint(opt.optimize(app_, *snap.market, deadline_h_)));
}

TEST_F(WarmStartTest, ForcedEpochBumpReusesEveryTable) {
  CostTableStore store;
  const SompiOptimizer opt(&catalog_, &est_, tiny_config());
  MarketSnapshot snap = board_.snapshot();
  ReplanContext fill = context(&store, snap);
  const Plan first = opt.optimize(app_, *snap.market, deadline_h_, &fill);

  // An empty ingest bumps the epoch but moves no history: the versions
  // vector is the SAME object, and a warm re-plan rebuilds nothing.
  const auto versions_before = snap.versions;
  board_.ingest({});
  snap = board_.snapshot();
  EXPECT_EQ(snap.versions.get(), versions_before.get());
  ReplanContext warm = context(&store, snap, std::make_shared<const Plan>(first));
  const Plan replan = opt.optimize(app_, *snap.market, deadline_h_, &warm);
  EXPECT_EQ(replan.stats.tables_built, 0u);
  EXPECT_EQ(replan.stats.tables_reused, first.stats.tables_built);
  EXPECT_EQ(plan_fingerprint(replan), plan_fingerprint(first));
}

TEST_F(WarmStartTest, DirtyGroupsReadOnlyTheirAppendedSteps) {
  CostTableStore store;
  const SompiOptimizer opt(&catalog_, &est_, tiny_config());
  MarketSnapshot snap = board_.snapshot();
  ReplanContext fill = context(&store, snap);
  const Plan first = opt.optimize(app_, *snap.market, deadline_h_, &fill);
  // Every group's history has the same length; a cold build reads all of it
  // once per candidate group.
  const std::size_t steps = snap.market->trace({0, 0}).steps();
  ASSERT_GT(first.stats.price_steps_read, 0u);
  ASSERT_EQ(first.stats.price_steps_read % steps, 0u);
  const std::size_t candidates = first.stats.price_steps_read / steps;

  // Two steps for every group, each at or below the group's maximum so the
  // bid grids stay put: each candidate's rebuild reads just those two.
  std::vector<PriceUpdate> updates;
  for (const CircleGroupSpec& g : catalog_.all_groups()) {
    const SpotTrace& trace = snap.market->trace(g);
    updates.push_back(PriceUpdate{g, {trace.price(0), trace.min_price()}});
  }
  board_.ingest(updates);
  snap = board_.snapshot();
  ReplanContext warm = context(&store, snap, std::make_shared<const Plan>(first));
  const Plan replan = opt.optimize(app_, *snap.market, deadline_h_, &warm);
  EXPECT_EQ(replan.stats.price_steps_read, 2 * candidates);
  const Plan cold = opt.optimize(app_, *snap.market, deadline_h_);
  EXPECT_EQ(cold.stats.price_steps_read, (steps + 2) * candidates);
  EXPECT_EQ(plan_fingerprint(replan), plan_fingerprint(cold));
}

// ---------------------------------------------------------------------------
// PlanService: the serve() warm path and its counters.

TEST(PlanServiceReplan, ServeRePlansWarmWithExactCountersAndColdIdentity) {
  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/2.0,
                                  /*step_hours=*/0.25, /*seed=*/42);
  MarketBoard board(market);
  ServiceConfig cfg;
  cfg.cache = {.shards = 2, .capacity = 8};
  cfg.opt = tiny_config();
  PlanService service(&catalog, &est, &board, cfg);

  PlanRequest r;
  r.app = paper_profile("BT");
  r.deadline_h = OnDemandSelector(&catalog, &est).baseline(r.app).t_h * 1.5;

  const PlanResponse first = service.serve(r);
  ASSERT_EQ(first.outcome, PlanOutcome::kSolved);
  const std::uint64_t span = first.plan->stats.tables_built;
  ASSERT_GT(span, 0u);
  EXPECT_EQ(service.stats().replan_count, 0u);  // first solve had no incumbent

  // Forced bump: the re-plan must reuse every table, count as a replan, and
  // still be bit-identical to the cold oracle at the new snapshot.
  board.ingest({});
  const MarketSnapshot snap = board.snapshot();
  const PlanResponse second = service.serve(r);
  ASSERT_EQ(second.outcome, PlanOutcome::kSolved);
  EXPECT_EQ(second.plan->stats.tables_built, 0u);
  EXPECT_EQ(second.plan->stats.tables_reused, span);
  const Plan cold = service.solve(canonicalized(r), *snap.market);
  EXPECT_EQ(plan_fingerprint(*second.plan), plan_fingerprint(cold));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.replan_count, 1u);
  EXPECT_EQ(stats.replan_table_hits, span);
  EXPECT_EQ(stats.replan_table_misses, span);  // the cold fill's builds
  EXPECT_EQ(stats.warm_seeds, second.plan->uses_spot() ? 1u : 0u);
  EXPECT_GT(stats.replan_p99_ms, 0.0);
  EXPECT_GE(service.table_store_stats().hits, stats.replan_table_hits);
}

// ---------------------------------------------------------------------------
// Feed delta publication: changed ∪ withheld covers the catalog, silent
// groups' board histories never move, empty deltas bump nothing.

TEST(FeedDeltaConservation, ChangedAndWithheldColumnsPartitionEveryBatch) {
  Catalog catalog{{InstanceType{.name = "t1", .ondemand_usd_h = 1.0}},
                  {Zone{"z1"}, Zone{"z2"}}};
  MarketBoard board{Market(&catalog, {SpotTrace(1.0, {1.0, 2.0}),
                                      SpotTrace(1.0, {1.0, 2.0})})};
  feed::FeedConfig cfg;
  cfg.window_steps = 4;
  cfg.publish_every = 2;
  cfg.late_horizon = 3;
  cfg.estimate = false;
  BoardFanout fanout({&board});
  feed::FeedPipeline pipe(&fanout, cfg);

  const auto tick = [](std::uint64_t step, std::size_t zone, double price) {
    feed::Tick t;
    t.group = CircleGroupSpec{0, zone};
    t.step = step;
    t.seq = feed::canonical_seq(step, zone, 2);
    t.price = price;
    return t;
  };
  // Group 0 speaks in batches {2,3} and {6,7}; group 1 only at step 2.
  pipe.offer(tick(2, 0, 3.0));
  pipe.offer(tick(2, 1, 7.0));
  pipe.offer(tick(3, 0, 4.0));
  pipe.offer(tick(6, 0, 5.0));
  pipe.offer(tick(7, 0, 6.0));
  pipe.flush();

  const feed::FeedStats s = pipe.stats();
  EXPECT_EQ(s.committed_steps, 6u);  // rows 2..7
  EXPECT_EQ(s.epochs_published, 2u);
  EXPECT_EQ(s.batches_suppressed, 1u);  // rows {4,5}: both columns all-gap
  EXPECT_EQ(s.columns_withheld, 3u);    // {4,5}×2 plus group 1 in {6,7}
  EXPECT_EQ(s.committed_values + s.gaps_filled, s.committed_steps * 2);

  // Conservation: per record the changed set is a non-empty catalog subset,
  // and changed + withheld columns account for every committed batch column.
  const std::vector<feed::PublishRecord> log = pipe.publish_log();
  ASSERT_EQ(log.size(), 2u);
  std::uint64_t accounted = 0;
  for (const feed::PublishRecord& rec : log) {
    ASSERT_FALSE(rec.changed_groups.empty());
    for (const CircleGroupSpec& g : rec.changed_groups) {
      EXPECT_EQ(g.type_index, 0u);
      EXPECT_LT(g.zone_index, 2u);
    }
    accounted += 2 - rec.changed_groups.size();
  }
  EXPECT_EQ(accounted + 2 * s.batches_suppressed, s.columns_withheld);
  EXPECT_EQ(log[0].changed_groups.size(), 2u);  // both groups ticked in {2,3}
  EXPECT_EQ(log[1].changed_groups.size(), 1u);  // only group 0 in {6,7}

  // Board effects: suppressed batch = no epoch; withheld column = history
  // and version frozen. Group 0 was stamped at both publishes, group 1 only
  // at the first.
  const MarketSnapshot snap = board.snapshot();
  EXPECT_EQ(snap.epoch, 3u);  // 1 (prime) + 2 publishes, none for {4,5}
  EXPECT_EQ(snap.market->trace({0, 0}).steps(), 6u);
  EXPECT_EQ(snap.market->trace({0, 1}).steps(), 4u);
  ASSERT_NE(snap.versions, nullptr);
  EXPECT_EQ((*snap.versions)[0], 3u);
  EXPECT_EQ((*snap.versions)[1], 2u);
}

// ---------------------------------------------------------------------------
// MarketBoard version semantics — the warm-start invalidation key.

TEST(MarketBoardVersions, IngestStampsNamedGroupsOnlyAndEmptyIngestKeepsThem) {
  Catalog catalog = paper_catalog();
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/1.0,
                                  /*step_hours=*/0.25, /*seed=*/5);
  MarketBoard board(market);
  const std::size_t zones = catalog.zones().size();

  const auto v1 = board.group_versions();
  for (const std::uint64_t v : *v1) EXPECT_EQ(v, 1u);  // ctor stamps all

  board.ingest({PriceUpdate{{1, 0}, {0.5}}});
  const auto v2 = board.group_versions();
  for (std::size_t i = 0; i < v2->size(); ++i)
    EXPECT_EQ((*v2)[i], i == 1 * zones + 0 ? 2u : 1u);

  // Forced bump: same versions OBJECT — downstream warm re-plans can prove
  // "nothing moved" by pointer identity alone.
  board.ingest({});
  EXPECT_EQ(board.epoch(), 3u);
  EXPECT_EQ(board.group_versions().get(), v2.get());

  board.publish(market);  // reconnect: everything is suspect again
  for (const std::uint64_t v : *board.group_versions()) EXPECT_EQ(v, 4u);
}

}  // namespace
}  // namespace sompi
