#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "net/wire.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "support/reference_search.h"

namespace sompi {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  static OptimizerConfig fast_config() {
    OptimizerConfig c;
    c.max_candidates = 5;
    c.setup.log_levels = 5;
    c.setup.failure.samples = 800;
    c.ratio_bins = 64;
    return c;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/4.0,
                                   /*step_hours=*/0.25, /*seed=*/77);
  OnDemandSelector selector_{&catalog_, &est_};
};

TEST_F(OptimizerTest, HybridPlanBeatsOnDemandOnCalmMarket) {
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  const double deadline = selector_.baseline(bt).t_h * 1.5;
  const Plan plan = opt.optimize(bt, market_, deadline);

  EXPECT_TRUE(plan.spot_feasible);
  EXPECT_TRUE(plan.uses_spot());
  EXPECT_LE(plan.expected.time_h, deadline + 1e-9);
  EXPECT_LT(plan.expected.cost_usd, plan.od.full_cost_usd());
  EXPECT_GT(plan.model_evaluations, 0u);
  EXPECT_DOUBLE_EQ(plan.state_gb, bt.state_gb);
}

TEST_F(OptimizerTest, PlanGroupsRespectConfigBounds) {
  OptimizerConfig cfg = fast_config();
  cfg.max_groups = 2;
  const SompiOptimizer opt(&catalog_, &est_, cfg);
  const AppProfile bt = paper_profile("BT");
  const Plan plan = opt.optimize(bt, market_, selector_.baseline(bt).t_h * 1.5);
  EXPECT_LE(plan.groups.size(), 2u);
  for (const auto& g : plan.groups) {
    EXPECT_GE(g.f_steps, 1);
    EXPECT_LE(g.f_steps, g.t_steps);
    EXPECT_GT(g.bid_usd, 0.0);
    EXPECT_GE(g.instances, 1);
  }
}

TEST_F(OptimizerTest, ImpossibleDeadlineFallsBackToFastestOnDemand) {
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  // Far below the baseline runtime: nothing fits.
  const Plan plan = opt.optimize(bt, market_, selector_.baseline(bt).t_h * 0.2);
  EXPECT_FALSE(plan.spot_feasible);
  EXPECT_FALSE(plan.uses_spot());
  EXPECT_EQ(catalog_.type(plan.od.type_index).name, "cc2.8xlarge");
}

TEST_F(OptimizerTest, HostileMarketPrefersOnDemand) {
  // All spot prices pinned above on-demand: the optimizer should refuse the
  // spot market entirely.
  std::vector<SpotTrace> traces;
  for (std::size_t i = 0; i < catalog_.types().size() * catalog_.zones().size(); ++i) {
    const auto& type = catalog_.types()[i / catalog_.zones().size()];
    traces.emplace_back(0.25, std::vector<double>(400, type.ondemand_usd_h * 3.0));
  }
  const Market hostile(&catalog_, std::move(traces));

  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  const double deadline = selector_.baseline(bt).t_h * 1.5;
  const Plan plan = opt.optimize(bt, hostile, deadline);
  EXPECT_FALSE(plan.uses_spot());
  EXPECT_NEAR(plan.expected.cost_usd, plan.od.full_cost_usd(), 1e-9);
}

TEST_F(OptimizerTest, LooseDeadlineNoMoreExpensiveThanTight) {
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  const double base = selector_.baseline(bt).t_h;
  const Plan tight = opt.optimize(bt, market_, base * 1.05);
  const Plan loose = opt.optimize(bt, market_, base * 1.5);
  EXPECT_LE(loose.expected.cost_usd, tight.expected.cost_usd + 1e-9);
}

TEST_F(OptimizerTest, DeterministicForSameInputs) {
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile lu = paper_profile("LU");
  const double deadline = selector_.baseline(lu).t_h * 1.3;
  const Plan a = opt.optimize(lu, market_, deadline);
  const Plan b = opt.optimize(lu, market_, deadline);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].name, b.groups[i].name);
    EXPECT_DOUBLE_EQ(a.groups[i].bid_usd, b.groups[i].bid_usd);
    EXPECT_EQ(a.groups[i].f_steps, b.groups[i].f_steps);
  }
  EXPECT_DOUBLE_EQ(a.expected.cost_usd, b.expected.cost_usd);
}

TEST_F(OptimizerTest, LogSearchCloseToUniformGridOptimum) {
  // §4.2.2: the logarithmic search preserves solution quality while
  // shrinking the space. Compare against a 16-point uniform grid.
  OptimizerConfig log_cfg = fast_config();
  OptimizerConfig uni_cfg = fast_config();
  uni_cfg.setup.bid_grid = BidGridKind::kUniform;
  uni_cfg.setup.uniform_points = 16;

  const AppProfile bt = paper_profile("BT");
  const double deadline = selector_.baseline(bt).t_h * 1.5;
  const Plan log_plan = SompiOptimizer(&catalog_, &est_, log_cfg).optimize(bt, market_, deadline);
  const Plan uni_plan = SompiOptimizer(&catalog_, &est_, uni_cfg).optimize(bt, market_, deadline);

  EXPECT_LT(log_plan.model_evaluations, uni_plan.model_evaluations);
  // Within 15% of the denser search's cost.
  EXPECT_LT(log_plan.expected.cost_usd, uni_plan.expected.cost_usd * 1.15 + 1e-9);
}

TEST_F(OptimizerTest, PlanCarriesSearchStats) {
  // The debug log used to be the only place evaluation counts surfaced;
  // Plan::stats now reports the engine's actual work to callers.
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  const Plan plan = opt.optimize(bt, market_, selector_.baseline(bt).t_h * 1.5);

  EXPECT_GT(plan.stats.evaluations, 0u);
  EXPECT_GT(plan.stats.tuples_visited, 0u);
  EXPECT_GT(plan.stats.subsets_searched, 0u);
  // The search prunes, so it performs at most the logical count.
  EXPECT_LE(plan.stats.evaluations, plan.model_evaluations);

  // The exhaustive scan's work profile is exactly the logical count.
  const Plan full = reference_optimize(catalog_, est_, fast_config(), bt, market_,
                                       selector_.baseline(bt).t_h * 1.5);
  EXPECT_EQ(full.stats.evaluations, full.model_evaluations);
  EXPECT_EQ(full.stats.tuples_pruned, 0u);
  EXPECT_EQ(full.stats.subsets_pruned, 0u);
  EXPECT_EQ(full.model_evaluations, plan.model_evaluations);
}

TEST_F(OptimizerTest, OptimizeSecondsCoverCandidateSetupButNotThePlanIdentity) {
  // The paper's optimization-overhead metric is the whole optimize() call;
  // candidate setup (the failure-model builds) is a reported share of it.
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile bt = paper_profile("BT");
  const double deadline = selector_.baseline(bt).t_h * 1.5;
  const Plan plan = opt.optimize(bt, market_, deadline);
  EXPECT_GT(plan.setup_seconds, 0.0);
  EXPECT_LT(plan.setup_seconds, plan.optimize_seconds);

  // Wall times are not plan identity: a re-solve fingerprints the same, so
  // does the plan with its timers cleared, and neither timer travels.
  Plan untimed = plan;
  untimed.optimize_seconds = untimed.setup_seconds = 0.0;
  EXPECT_EQ(plan_fingerprint(untimed), plan_fingerprint(plan));
  EXPECT_EQ(plan_fingerprint(opt.optimize(bt, market_, deadline)), plan_fingerprint(plan));
  PlanResponse sent;
  sent.outcome = PlanOutcome::kSolved;
  sent.plan = std::make_shared<const Plan>(plan);
  PlanResponse received;
  ASSERT_TRUE(net::decode_plan_response(net::encode_plan_response(sent), &received));
  ASSERT_NE(received.plan, nullptr);
  EXPECT_EQ(received.plan->optimize_seconds, 0.0);
  EXPECT_EQ(received.plan->setup_seconds, 0.0);
  EXPECT_EQ(plan_fingerprint(*received.plan), plan_fingerprint(plan));
}

TEST_F(OptimizerTest, ReferenceEngineProducesIdenticalPlans) {
  const AppProfile lu = paper_profile("LU");
  const double deadline = selector_.baseline(lu).t_h * 1.3;
  const Plan a = SompiOptimizer(&catalog_, &est_, fast_config()).optimize(lu, market_, deadline);
  const Plan b = reference_optimize(catalog_, est_, fast_config(), lu, market_, deadline);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].name, b.groups[i].name);
    EXPECT_DOUBLE_EQ(a.groups[i].bid_usd, b.groups[i].bid_usd);
    EXPECT_EQ(a.groups[i].f_steps, b.groups[i].f_steps);
  }
  EXPECT_DOUBLE_EQ(a.expected.cost_usd, b.expected.cost_usd);
  EXPECT_EQ(a.model_evaluations, b.model_evaluations);
}

TEST_F(OptimizerTest, CommAppConvergesOnCc2) {
  // §5.3.1: for communication-intensive workloads every sensible plan uses
  // cc2.8xlarge groups.
  const SompiOptimizer opt(&catalog_, &est_, fast_config());
  const AppProfile ft = paper_profile("FT");
  const Plan plan = opt.optimize(ft, market_, selector_.baseline(ft).t_h * 1.5);
  ASSERT_TRUE(plan.uses_spot());
  for (const auto& g : plan.groups)
    EXPECT_EQ(catalog_.type(g.spec.type_index).name, "cc2.8xlarge") << g.name;
}

}  // namespace
}  // namespace sompi
