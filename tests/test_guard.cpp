// Tests for the worst-case deadline guard (DESIGN.md §6b): under pressure
// the optimizer must buy safety with dense checkpoints or genuine
// replication; without the guard it gambles.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/optimizer.h"
#include "core/schedule.h"
#include "profile/paper_profiles.h"
#include "service/market_board.h"
#include "service/request.h"
#include "support/reference_search.h"

namespace sompi {
namespace {

class GuardTest : public ::testing::Test {
 protected:
  static OptimizerConfig fast(bool guard) {
    OptimizerConfig c;
    c.max_candidates = 6;
    c.setup.log_levels = 5;
    c.setup.failure.samples = 800;
    c.ratio_bins = 64;
    c.worst_case_guard = guard;
    return c;
  }

  /// Worst-case completion time of one planned group, as the guard sees it.
  static double group_worst_h(const GroupPlan& g, double step_h, double od_t_h) {
    const GroupSchedule sched(g.t_steps, g.f_steps, g.o_steps, g.r_steps);
    double worst = sched.wall_duration() * step_h;
    for (int t = 0; t < static_cast<int>(std::ceil(sched.wall_duration())); ++t)
      worst = std::max(worst, t * step_h + sched.ratio_at(t) * od_t_h);
    return worst;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), 10.0, 0.25, 17);
  OnDemandSelector selector_{&catalog_, &est_};
};

TEST_F(GuardTest, EveryGuardedPlanIsWorstCaseSafeOrReplicated) {
  const SompiOptimizer opt(&catalog_, &est_, fast(true));
  for (const char* name : {"BT", "LU", "FT", "BTIO"}) {
    const AppProfile app = paper_profile(name);
    for (const double factor : {1.1, 1.3, 1.5}) {
      const double deadline = selector_.baseline(app).t_h * factor;
      const Plan plan = opt.optimize(app, market_, deadline);
      if (!plan.uses_spot()) continue;
      double worst = 0.0;
      for (const auto& g : plan.groups)
        worst = std::max(worst, group_worst_h(g, plan.step_hours, plan.od.t_h));
      const bool worst_case_safe = worst <= deadline + 1e-9;
      const bool replicated = plan.groups.size() >= 2;
      EXPECT_TRUE(worst_case_safe || replicated)
          << name << " @" << factor << ": worst " << worst << " vs " << deadline;
    }
  }
}

TEST_F(GuardTest, GuardTablesEqualThePerStepReference) {
  // The guard facts every block a warm solve stores holds: the worst case
  // per (policy, F) for every F in [1, T], and the survival bit per
  // (policy, bid) choice, against the per-step worst-case scan and the
  // model's survival at the choice's wall. The per-solve clamp and fits
  // bits they feed are checked through plan identity with the exhaustive
  // scan, which derives both from the reference worst case.
  const MarketBoard board(market_);
  const MarketSnapshot snap = board.snapshot();
  std::size_t blocks = 0, clamps = 0, unfit = 0, dying = 0;
  for (const bool multilevel : {false, true}) {
    OptimizerConfig config = fast(true);
    config.max_groups = 2;  // keeps the exhaustive scan quick; k == 1 still clamps
    if (multilevel)
      config.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                              CkptPolicy::cache_xor_s3()};
    const SompiOptimizer opt(&catalog_, &est_, config);
    const std::size_t n_pol = std::max<std::size_t>(config.ckpt_policies.size(), 1);
    for (const char* name : {"BT", "LU", "FT", "BTIO"}) {
      const AppProfile app = paper_profile(name);
      for (const double factor : {1.05, 1.1, 1.3, 1.5}) {
        const std::string what = std::string(name) + " @" + std::to_string(factor);
        const double deadline = selector_.baseline(app).t_h * factor;
        CostTableStore store;
        ReplanContext ctx;
        ctx.store = &store;
        ctx.scope = "scope";
        ctx.versions = snap.versions;
        const Plan plan = opt.optimize(app, *snap.market, deadline, &ctx);
        const Plan want = reference_optimize(catalog_, est_, config, app, *snap.market, deadline);
        ASSERT_EQ(plan_fingerprint(plan), plan_fingerprint(want)) << what;
        ASSERT_EQ(plan.model_evaluations, want.model_evaluations) << what;
        const std::uint64_t chash = replan_config_hash(config, app, plan.od, deadline);
        for (const CircleGroupSpec& spec : catalog_.all_groups()) {
          const auto art = store.lookup(
              "scope", spec, snap.versions->at(spec.type_index * catalog_.zones().size() +
                                               spec.zone_index),
              chash);
          if (art == nullptr || !art->has_derived()) continue;
          ++blocks;
          const GroupSetup& g = art->setup;
          const GroupCostTable& blk = *art->table;
          const std::size_t bids = g.failure.bid_count();
          ASSERT_EQ(blk.choice_count(), n_pol * bids);
          for (std::size_t p = 0; p < n_pol; ++p) {
            const CkptPolicy pol = multilevel ? config.ckpt_policies[p] : CkptPolicy{};
            for (int f = 1; f <= g.t_steps; ++f)
              ASSERT_EQ(blk.worst_h(p, f),
                        reference_group_worst_h(g, f, pol.o_scale, pol.r_scale, plan.step_hours,
                                                plan.od.t_h))
                  << what << " policy " << p << " F " << f;
            const int clamp = reference_f_guard_max(g, pol.o_scale, pol.r_scale,
                                                    plan.step_hours, plan.od.t_h, deadline);
            clamps += clamp > 0 && clamp < g.t_steps;
            for (std::size_t b = 0; b < bids; ++b) {
              const std::size_t c = p * bids + b;
              const int f = blk.cell(c).f_steps;
              unfit += !(reference_group_worst_h(g, f, pol.o_scale, pol.r_scale,
                                                 plan.step_hours, plan.od.t_h) <= deadline);
              const double wall = GroupSchedule(g.t_steps, f, g.o_steps * pol.o_scale,
                                                g.r_steps * pol.r_scale)
                                      .wall_duration();
              const bool survives = g.failure.survival_at(b, wall) >= 0.5;
              ASSERT_EQ(blk.survives(c), survives) << what << " choice " << c;
              dying += !survives;
            }
          }
        }
      }
    }
  }
  // Both guard outcomes occur: active clamps and choices that miss, and
  // both survival outcomes.
  EXPECT_GT(blocks, 50u);
  EXPECT_GT(clamps, 0u);
  EXPECT_GT(unfit, 0u);
  EXPECT_GT(dying, 0u);
}

TEST_F(GuardTest, ASurvivalOfExactlyOneHalfPassesTheSurvivalTest) {
  // The survival test is !(survival < 0.5), as in the exhaustive scan, so a
  // group that survives its wall with probability exactly 0.5 passes it.
  // Two samples over a two-step history, cheap then dear: a start at the
  // cheap step outlives the first step and a start at the dear one does
  // not, so a seed that draws one of each gives survival 0.5 at W = 1.
  const SpotTrace history(0.25, {0.01, 0.05});
  const OnDemandChoice od{.t_h = 1.0, .instances = 1, .rate_usd_h = 1.0, .feasible = true};
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 64 && checked == 0; ++seed) {
    FailureEstimationConfig fec;
    fec.samples = 2;
    fec.horizon_steps = 4;
    fec.seed = seed;
    const GroupSetup g{.spec = {0, 0},
                       .instances = 1,
                       .t_steps = 1,
                       .o_steps = 0.5,
                       .r_steps = 0.5,
                       .failure = FailureModel(history, {0.02}, fec)};
    if (g.failure.survival_at(0, 1.0) != 0.5) continue;
    const GroupCostTable blk(g, od, {.step_hours = 0.25, .ratio_bins = 16},
                             {ChoiceSpec{.bid_index = 0, .f_steps = 1}});
    EXPECT_TRUE(blk.survives(0)) << "seed " << seed;
    ++checked;
  }
  EXPECT_EQ(checked, 1u);
}

TEST_F(GuardTest, SingleGroupPlansCheckpointDenselyUnderPressure) {
  // When the guard admits a single group, its checkpoint interval must be
  // small enough that no kill instant can blow the deadline.
  const SompiOptimizer opt(&catalog_, &est_, fast(true));
  const AppProfile bt = paper_profile("BT");
  const Plan plan = opt.optimize(bt, market_, selector_.baseline(bt).t_h * 1.5);
  ASSERT_TRUE(plan.uses_spot());
  if (plan.groups.size() == 1) {
    const auto& g = plan.groups[0];
    EXPECT_LT(g.f_steps, g.t_steps);  // checkpoints are on
    EXPECT_LE(group_worst_h(g, plan.step_hours, plan.od.t_h),
              plan.deadline_h + 1e-9);
  }
}

TEST_F(GuardTest, UnguardedOptimizerMayPickUnsafePlans) {
  // Without the guard, the pure-expectation optimizer accepts plans whose
  // worst case exceeds the deadline (the All-Unable behaviour).
  OptimizerConfig cfg = fast(false);
  cfg.max_groups = 1;
  cfg.phi_mode = PhiMode::kDisabled;  // no checkpoints at all
  const SompiOptimizer opt(&catalog_, &est_, cfg);
  const AppProfile bt = paper_profile("BT");
  const double deadline = selector_.baseline(bt).t_h * 1.5;
  const Plan plan = opt.optimize(bt, market_, deadline);
  ASSERT_TRUE(plan.uses_spot());
  const auto& g = plan.groups[0];
  EXPECT_EQ(g.f_steps, g.t_steps);  // checkpointing really disabled
  EXPECT_GT(group_worst_h(g, plan.step_hours, plan.od.t_h), deadline);
}

TEST_F(GuardTest, BidsNeverExceedOnDemandPrice) {
  // The rational bid cap (DESIGN.md 6a): on-demand is a guaranteed
  // alternative, so no plan bids above it.
  const SompiOptimizer opt(&catalog_, &est_, fast(true));
  for (const char* name : {"BT", "FT"}) {
    const AppProfile app = paper_profile(name);
    const Plan plan = opt.optimize(app, market_, selector_.baseline(app).t_h * 1.5);
    for (const auto& g : plan.groups)
      EXPECT_LE(g.bid_usd, catalog_.type(g.spec.type_index).ondemand_usd_h + 1e-12)
          << g.name;
  }
}

TEST_F(GuardTest, GuardedNeverCostsMoreThanOnDemand) {
  const SompiOptimizer opt(&catalog_, &est_, fast(true));
  for (const char* name : {"BT", "SP", "FT", "IS", "BTIO", "LU"}) {
    const AppProfile app = paper_profile(name);
    const Plan plan = opt.optimize(app, market_, selector_.baseline(app).t_h * 1.5);
    EXPECT_LE(plan.expected.cost_usd, plan.od.full_cost_usd() + 1e-9) << name;
  }
}

}  // namespace
}  // namespace sompi
