#include "core/ckpt_interval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/schedule.h"
#include "support/oracle_generators.h"
#include "trace/generator.h"

namespace sompi {
namespace {

FailureEstimationConfig fe_config() {
  FailureEstimationConfig c;
  c.samples = 4000;
  c.horizon_steps = 100;
  return c;
}

GroupSetup make_group(const SpotTrace& trace, double bid, int t_steps, double o_steps) {
  return GroupSetup{
      .spec = {0, 0},
      .instances = 4,
      .t_steps = t_steps,
      .o_steps = o_steps,
      .r_steps = 2.0 * o_steps,
      .failure = FailureModel(trace, {bid}, fe_config()),
  };
}

OnDemandChoice make_od() {
  OnDemandChoice od;
  od.t_h = 10.0;
  od.instances = 4;
  od.rate_usd_h = 8.0;
  od.feasible = true;
  return od;
}

SpotTrace bursty_trace() {
  std::vector<double> prices;
  for (int rep = 0; rep < 100; ++rep) {
    for (int i = 0; i < 18; ++i) prices.push_back(0.05);
    for (int i = 0; i < 2; ++i) prices.push_back(1.0);
  }
  return SpotTrace(0.25, std::move(prices));
}

TEST(CheckpointPlanner, YoungDalyMatchesFormula) {
  const SpotTrace trace = bursty_trace();
  const GroupSetup g = make_group(trace, 0.5, 40, 0.5);
  const double mtbf = g.failure.mtbf(0);
  const int expected = std::clamp<int>(std::lround(std::sqrt(2.0 * 0.5 * mtbf)), 1, 40);
  EXPECT_EQ(CheckpointPlanner::young_daly(g, 0), expected);
}

TEST(CheckpointPlanner, YoungDalyFreeCheckpointsMeansEveryStep) {
  const GroupSetup g = make_group(bursty_trace(), 0.5, 40, 0.0);
  EXPECT_EQ(CheckpointPlanner::young_daly(g, 0), 1);
}

TEST(CheckpointPlanner, DisabledModeReturnsT) {
  CheckpointPlanner::Config cfg;
  cfg.mode = PhiMode::kDisabled;
  const CheckpointPlanner phi(cfg);
  const GroupSetup g = make_group(bursty_trace(), 0.5, 33, 0.5);
  EXPECT_EQ(phi.choose(g, 0, make_od()), 33);
}

TEST(CheckpointPlanner, CandidateGridCoversEndpoints) {
  CheckpointPlanner::Config cfg;
  const CheckpointPlanner phi(cfg);
  const auto grid = phi.candidate_intervals(40, 7);
  EXPECT_EQ(grid.front(), 1);
  EXPECT_EQ(grid.back(), 40);
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  EXPECT_TRUE(std::adjacent_find(grid.begin(), grid.end()) == grid.end());  // unique
  EXPECT_NE(std::find(grid.begin(), grid.end(), 7), grid.end());            // young included
}

TEST(CheckpointPlanner, NumericNeverWorseThanYoungOrEndpoints) {
  // Theorem-1 property at the per-group level: φ(P) minimizes J among the
  // candidates, so it is at least as good as Young/Daly, F=1, and F=T.
  const SpotTrace trace = bursty_trace();
  const OnDemandChoice od = make_od();
  CheckpointPlanner::Config cfg;
  const CheckpointPlanner phi(cfg);
  for (double bid : {0.2, 0.5}) {
    for (int t : {10, 40, 80}) {
      const GroupSetup g = make_group(trace, bid, t, 0.4);
      const int chosen = phi.choose(g, 0, od);
      const double j_chosen = phi.objective(g, 0, chosen, od);
      EXPECT_LE(j_chosen, phi.objective(g, 0, CheckpointPlanner::young_daly(g, 0), od) + 1e-9);
      EXPECT_LE(j_chosen, phi.objective(g, 0, 1, od) + 1e-9);
      EXPECT_LE(j_chosen, phi.objective(g, 0, t, od) + 1e-9);
    }
  }
}

TEST(CheckpointPlanner, BurstyMarketWantsCheckpoints) {
  // With regular kills mid-run, some checkpointing must beat none.
  const GroupSetup g = make_group(bursty_trace(), 0.5, 40, 0.2);
  CheckpointPlanner::Config cfg;
  const CheckpointPlanner phi(cfg);
  const int chosen = phi.choose(g, 0, make_od());
  EXPECT_LT(chosen, 40);
  EXPECT_LT(phi.objective(g, 0, chosen, make_od()), phi.objective(g, 0, 40, make_od()));
}

TEST(CheckpointPlanner, SafeMarketAvoidsDenseCheckpoints) {
  // A group that never dies should not checkpoint after every step —
  // overhead only adds spot cost.
  const SpotTrace calm(0.25, std::vector<double>(1000, 0.05));
  const GroupSetup g = make_group(calm, 0.5, 40, 0.5);
  CheckpointPlanner::Config cfg;
  const CheckpointPlanner phi(cfg);
  EXPECT_GT(phi.choose(g, 0, make_od()), 10);
}

// The first argmin of the per-step objective over the candidate grid: what
// choose() must return, bit for bit.
int first_argmin(const CheckpointPlanner& phi, const GroupSetup& g, std::size_t b,
                 const OnDemandChoice& od, const CkptPolicy& pol) {
  int best_f = g.t_steps;
  double best_j = std::numeric_limits<double>::infinity();
  const int young = CheckpointPlanner::young_daly(g, b, pol.o_scale);
  for (const int f : phi.candidate_intervals(g.t_steps, young)) {
    const double j = phi.objective(g, b, f, od, pol.o_scale, pol.r_scale);
    if (j < best_j) {
      best_j = j;
      best_f = f;
    }
  }
  return best_f;
}

TEST(CheckpointPlannerOracle, ChooseIsTheFirstArgminOfTheObjective) {
  Rng rng(0xF1C0);
  const CheckpointPlanner phi(CheckpointPlanner::Config{});
  CheckpointPlanner::Config young_cfg;
  young_cfg.mode = PhiMode::kYoungDaly;
  const CheckpointPlanner young(young_cfg);
  const std::vector<CkptPolicy> policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                                            CkptPolicy::cache_xor_s3(),
                                            CkptPolicy{"zero", 0.0, 0.0},
                                            CkptPolicy{"dear", 3.0, 2.5}};
  std::size_t choices = 0, beyond_horizon = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(120);
    const SpotTrace trace(0.25, random_prices(n, rng));
    const std::vector<double> bids = random_bids(trace.prices(), rng);
    FailureEstimationConfig fe;
    fe.samples = 1 + rng.uniform_index(rng.bernoulli(0.5) ? 600 : 20);
    fe.horizon_steps = 1 + rng.uniform_index(2 * n + 8);
    fe.seed = rng();
    // T up to past the horizon, so some walls are censored; O fractional,
    // sometimes longer than a step.
    const int t_steps = 1 + static_cast<int>(rng.uniform_index(2 * fe.horizon_steps + 4));
    const double o_steps = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
    const double r_steps = rng.uniform(0.0, 3.0);
    OnDemandChoice od = make_od();
    od.t_h = rng.uniform(1.0, 30.0);
    for (const bool wrap : {true, false}) {
      fe.wrap = wrap;
      const GroupSetup g{.spec = {0, 0},
                         .instances = 1 + static_cast<int>(rng.uniform_index(8)),
                         .t_steps = t_steps,
                         .o_steps = o_steps,
                         .r_steps = r_steps,
                         .failure = FailureModel(trace, bids, fe)};
      for (std::size_t b = 0; b < bids.size(); ++b) {
        const std::vector<int> all = phi.choose(g, b, od, policies);
        const std::vector<int> all_young = young.choose(g, b, od, policies);
        ASSERT_EQ(all.size(), policies.size());
        for (std::size_t p = 0; p < policies.size(); ++p) {
          const CkptPolicy& pol = policies[p];
          const int want = first_argmin(phi, g, b, od, pol);
          ASSERT_EQ(phi.choose(g, b, od, pol.o_scale, pol.r_scale), want)
              << "iter " << iter << " bid " << b << " policy " << pol.name << " wrap " << wrap
              << " T=" << t_steps << " O=" << o_steps << " H=" << fe.horizon_steps;
          ASSERT_EQ(all[p], want) << "iter " << iter << " bid " << b << " policy " << pol.name;
          ASSERT_EQ(all_young[p], CheckpointPlanner::young_daly(g, b, pol.o_scale));
          beyond_horizon += GroupSchedule(t_steps, 1, o_steps * pol.o_scale,
                                          r_steps * pol.r_scale)
                                .wall_duration() > static_cast<double>(fe.horizon_steps);
          ++choices;
        }
      }
    }
  }
  EXPECT_GT(choices, 5000u);
  EXPECT_GT(beyond_horizon, 500u);
}

}  // namespace
}  // namespace sompi
