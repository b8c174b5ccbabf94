#include "core/adaptive.h"

#include <gtest/gtest.h>

#include "baselines/ablations.h"
#include "profile/paper_profiles.h"
#include "sim/monte_carlo.h"
#include "sim/replay.h"

namespace sompi {
namespace {

class AdaptiveTest : public ::testing::Test {
 protected:
  static AdaptiveConfig fast_config() {
    AdaptiveConfig c;
    c.window_h = 8.0;
    c.lookback_h = 24.0;
    c.opt.max_candidates = 4;
    c.opt.setup.log_levels = 4;
    c.opt.setup.failure.samples = 400;
    c.opt.ratio_bins = 64;
    c.opt.max_groups = 2;
    return c;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/10.0,
                                   /*step_hours=*/0.25, /*seed=*/31);
  OnDemandSelector selector_{&catalog_, &est_};
  AppProfile bt_ = paper_profile("BT");
};

TEST_F(AdaptiveTest, CompletesWithinDeadlineOnRealMarket) {
  const AdaptiveEngine engine(&catalog_, &est_, fast_config());
  MarketReplayOracle oracle(&market_);
  const double deadline = selector_.baseline(bt_).t_h * 1.5;
  const AdaptiveResult r = engine.run(bt_, oracle, /*start_h=*/48.0, deadline);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.met_deadline) << r.hours << " vs " << deadline;
  EXPECT_GT(r.windows, 0);
  EXPECT_GT(r.cost_usd, 0.0);
}

TEST_F(AdaptiveTest, CheaperThanPureOnDemand) {
  const AdaptiveEngine engine(&catalog_, &est_, fast_config());
  MarketReplayOracle oracle(&market_);
  const double deadline = selector_.baseline(bt_).t_h * 1.5;
  const AdaptiveResult r = engine.run(bt_, oracle, 48.0, deadline);
  const double od_cost = selector_.select(bt_, deadline, 0.0).full_cost_usd();
  EXPECT_LT(r.cost_usd, od_cost);
}

TEST_F(AdaptiveTest, TightDeadlineTriggersOnDemandGuard) {
  // A deadline a hair above the baseline runtime leaves no spot plan whose
  // expected time fits: Algorithm 1's guard finishes the run on demand.
  const AdaptiveEngine engine(&catalog_, &est_, fast_config());
  MarketReplayOracle oracle(&market_);
  const double deadline = selector_.baseline(bt_).t_h * 1.005;
  const AdaptiveResult r = engine.run(bt_, oracle, 48.0, deadline);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.fell_back_to_ondemand);
  EXPECT_TRUE(r.met_deadline);
}

TEST_F(AdaptiveTest, HostileMarketStillCompletes) {
  // Spot pinned far above on-demand: the engine must deliver the run on
  // demand without blowing the deadline.
  std::vector<SpotTrace> traces;
  for (std::size_t i = 0; i < catalog_.types().size() * catalog_.zones().size(); ++i)
    traces.emplace_back(0.25, std::vector<double>(10 * 96, 50.0));
  const Market hostile(&catalog_, std::move(traces));

  const AdaptiveEngine engine(&catalog_, &est_, fast_config());
  MarketReplayOracle oracle(&hostile);
  const double deadline = selector_.baseline(bt_).t_h * 1.4;
  const AdaptiveResult r = engine.run(bt_, oracle, 48.0, deadline);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.fell_back_to_ondemand);
  EXPECT_TRUE(r.met_deadline);
}

TEST_F(AdaptiveTest, MaintenanceOffReusesInitialPlan) {
  AdaptiveConfig no_mt = fast_config();
  no_mt.update_maintenance = false;
  const AdaptiveEngine engine(&catalog_, &est_, no_mt);
  MarketReplayOracle oracle(&market_);
  const double deadline = selector_.baseline(bt_).t_h * 1.5;
  const AdaptiveResult r = engine.run(bt_, oracle, 48.0, deadline);
  EXPECT_TRUE(r.completed);
  // Only the first window pays optimization cost.
  const AdaptiveEngine with_mt(&catalog_, &est_, fast_config());
  const AdaptiveResult r_mt = with_mt.run(bt_, oracle, 48.0, deadline);
  if (r_mt.windows > 1) {
    EXPECT_GT(r_mt.model_evaluations, r.model_evaluations);
  }
}

TEST_F(AdaptiveTest, MonteCarloAdaptiveStats) {
  MonteCarloConfig mc;
  mc.runs = 8;
  mc.lookback_h = 24.0;
  mc.reserve_h = 60.0;
  const MonteCarloRunner runner(&market_, {}, mc);
  const AdaptiveEngine engine(&catalog_, &est_, fast_config());
  const double deadline = selector_.baseline(bt_).t_h * 1.5;
  const MonteCarloStats stats = runner.run_adaptive(engine, bt_, deadline);
  EXPECT_EQ(stats.runs, 8u);
  EXPECT_GT(stats.cost.mean, 0.0);
  EXPECT_LE(stats.deadline_miss_rate, 0.25);
}

TEST_F(AdaptiveTest, MonteCarloPlannedReplansPerStart) {
  MonteCarloConfig mc;
  mc.runs = 5;
  mc.reserve_h = 60.0;
  const MonteCarloRunner runner(&market_, {}, mc);
  const double deadline = selector_.baseline(bt_).t_h * 1.4;
  std::size_t planner_calls = 0;
  const MonteCarloStats stats = runner.run_planned(
      [&](const Market& history, double dl) {
        ++planner_calls;
        // History must never be empty and must predate execution.
        EXPECT_GT(history.trace({0, 0}).steps(), 0u);
        OptimizerConfig cfg = fast_config().opt;
        const SompiOptimizer opt(&catalog_, &est_, cfg);
        return opt.optimize(bt_, history, dl);
      },
      deadline);
  EXPECT_EQ(planner_calls, 5u);
  EXPECT_EQ(stats.runs, 5u);
}

TEST_F(AdaptiveTest, AblationConfigsDiffer) {
  EXPECT_EQ(without_replication_config().max_groups, 1);
  EXPECT_EQ(without_checkpoint_config().phi_mode, PhiMode::kDisabled);
  EXPECT_EQ(all_unable_config().max_groups, 1);
  EXPECT_EQ(all_unable_config().phi_mode, PhiMode::kDisabled);
  EXPECT_FALSE(without_maintenance_config().update_maintenance);
  EXPECT_TRUE(sompi_adaptive_config().update_maintenance);
}

}  // namespace
}  // namespace sompi
