// Differential oracle for the optimizer fast path (DESIGN.md "Optimizer
// fast path"): the incremental evaluator must match the retained naive
// evaluator to 0 ULP on every Expectation field, the admissible bounds must
// never exceed a real cost, and branch-and-bound search must return plans
// fingerprint-identical to the exhaustive scan in tests/support.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ablations.h"
#include "common/combinatorics.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "support/reference_search.h"

namespace sompi {
namespace {

// --- Randomized micro-market helpers (deterministic seeds). ---

SpotTrace random_trace(std::uint64_t seed, std::size_t steps = 600) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> level(0.02, 1.2);
  std::uniform_real_distribution<double> jitter(-0.015, 0.015);
  std::vector<double> prices;
  prices.reserve(steps);
  double base = level(rng);
  for (std::size_t i = 0; i < steps; ++i) {
    if (rng() % 37 == 0) base = level(rng);  // regime change
    prices.push_back(std::max(0.0, base + jitter(rng)));
  }
  return SpotTrace(0.25, std::move(prices));
}

GroupSetup random_group(std::uint64_t seed, std::size_t bid_levels = 5) {
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  const SpotTrace trace = random_trace(seed);
  FailureEstimationConfig fe;
  fe.samples = 600;
  fe.horizon_steps = 120;
  return GroupSetup{
      .spec = {0, 0},
      .instances = 1 + static_cast<int>(rng() % 8),
      .t_steps = 8 + static_cast<int>(rng() % 25),
      .o_steps = 0.1 + static_cast<double>(rng() % 5) * 0.1,
      .r_steps = 0.2 + static_cast<double>(rng() % 5) * 0.15,
      .failure = FailureModel(trace, logarithmic_bid_grid(trace.max_price(), bid_levels),
                              fe),
  };
}

OnDemandChoice make_od() {
  OnDemandChoice od;
  od.type_index = 0;
  od.t_h = 9.0;
  od.instances = 4;
  od.rate_usd_h = 6.5;
  od.feasible = true;
  return od;
}

/// Synthetic bid-tied intervals: any F map exercises the tables; using an
/// arbitrary one (instead of a real φ) keeps the oracle independent of the
/// checkpoint planner.
std::vector<std::vector<int>> synthetic_f_of(const std::vector<GroupSetup>& groups,
                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<int>> f_of(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    f_of[g].resize(groups[g].failure.bid_count());
    for (int& f : f_of[g])
      f = 1 + static_cast<int>(rng() % static_cast<unsigned>(groups[g].t_steps));
  }
  return f_of;
}

void expect_bit_equal(const Expectation& a, const Expectation& b, const char* what) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.cost_usd), bits(b.cost_usd)) << what << " cost";
  EXPECT_EQ(bits(a.time_h), bits(b.time_h)) << what << " time";
  EXPECT_EQ(bits(a.spot_cost_usd), bits(b.spot_cost_usd)) << what << " spot cost";
  EXPECT_EQ(bits(a.od_cost_usd), bits(b.od_cost_usd)) << what << " od cost";
  EXPECT_EQ(bits(a.spot_time_h), bits(b.spot_time_h)) << what << " spot time";
  EXPECT_EQ(bits(a.od_time_h), bits(b.od_time_h)) << what << " od time";
  EXPECT_EQ(bits(a.p_complete_on_spot), bits(b.p_complete_on_spot)) << what << " pspot";
  EXPECT_EQ(bits(a.e_min_ratio), bits(b.e_min_ratio)) << what << " ratio";
}

TEST(SubsetEvaluatorOracle, MatchesNaiveEvaluatorToZeroUlp) {
  const CostModel::Config cfg{.step_hours = 0.25, .ratio_bins = 48};
  for (std::uint64_t seed : {11ull, 42ull, 1729ull, 9001ull}) {
    std::vector<GroupSetup> groups;
    for (std::uint64_t g = 0; g < 4; ++g) groups.push_back(random_group(seed * 13 + g));
    const OnDemandChoice od = make_od();
    const auto f_of = synthetic_f_of(groups, seed);
    const CostTables tables = bid_only_tables(groups, od, cfg, f_of);

    // Every subset of sizes 1..3, full lex tuple walk, against a fresh
    // naive evaluation of the SAME decisions at every step.
    for (std::size_t k = 1; k <= 3; ++k) {
      for_each_combination(groups.size(), k, [&](const std::vector<std::size_t>& subset) {
        SubsetEvaluator ev(tables, subset);
        std::vector<const GroupSetup*> view;
        std::vector<std::size_t> radices;
        for (std::size_t g : subset) {
          view.push_back(&groups[g]);
          radices.push_back(groups[g].failure.bid_count());
        }
        const CostModel naive(view, od, cfg);
        std::vector<GroupDecision> decisions(k);
        for_each_tuple_lex(radices, [&](const std::vector<std::size_t>& bids,
                                        std::size_t changed) {
          ev.note_change(changed);
          const Expectation& fast = ev.evaluate(bids);
          for (std::size_t i = 0; i < k; ++i)
            decisions[i] = {bids[i], f_of[subset[i]][bids[i]]};
          const Expectation ref = naive.evaluate(decisions);
          expect_bit_equal(fast, ref, "incremental vs naive");
        });
      });
    }
  }
}

TEST(SubsetEvaluatorOracle, StaleStateIsNeverReused) {
  // Adversarial change pattern: evaluate sparse tuples (skipping around with
  // explicit note_change) and verify against the naive model — catches any
  // prefix-cache invalidation bug that a dense lex walk would mask.
  const CostModel::Config cfg{.step_hours = 0.25, .ratio_bins = 32};
  std::vector<GroupSetup> groups;
  for (std::uint64_t g = 0; g < 3; ++g) groups.push_back(random_group(777 + g));
  const OnDemandChoice od = make_od();
  const auto f_of = synthetic_f_of(groups, 777);
  const CostTables tables = bid_only_tables(groups, od, cfg, f_of);

  const std::vector<std::size_t> subset{0, 1, 2};
  SubsetEvaluator ev(tables, subset);
  const CostModel naive({&groups[0], &groups[1], &groups[2]}, od, cfg);

  std::mt19937_64 rng(31337);
  std::vector<std::size_t> bids(3, 0);
  for (int step = 0; step < 200; ++step) {
    const std::size_t change = rng() % 3;
    for (std::size_t i = change; i < 3; ++i)
      bids[i] = rng() % groups[i].failure.bid_count();
    ev.note_change(change);
    const Expectation& fast = ev.evaluate(bids);
    std::vector<GroupDecision> decisions(3);
    for (std::size_t i = 0; i < 3; ++i) decisions[i] = {bids[i], f_of[i][bids[i]]};
    expect_bit_equal(fast, naive.evaluate(decisions), "random-walk");
  }
}

TEST(SubsetEvaluatorOracle, AgreesWithJointExactOnTinyCases) {
  // The incremental evaluator inherits the decomposition's accuracy: on
  // instances small enough for the literal joint sum, it must agree within
  // the decomposition's documented tolerances.
  const CostModel::Config cfg{.step_hours = 0.25, .ratio_bins = 512};
  std::vector<GroupSetup> groups;
  for (std::uint64_t g = 0; g < 2; ++g) {
    GroupSetup grp = random_group(55 + g, /*bid_levels=*/3);
    grp.t_steps = 6;  // keep the joint grid tractable
    groups.push_back(std::move(grp));
  }
  const OnDemandChoice od = make_od();
  const auto f_of = synthetic_f_of(groups, 55);
  const CostTables tables = bid_only_tables(groups, od, cfg, f_of);

  const std::vector<std::size_t> subset{0, 1};
  SubsetEvaluator ev(tables, subset);
  const CostModel naive({&groups[0], &groups[1]}, od, cfg);
  std::vector<std::size_t> radices{groups[0].failure.bid_count(),
                                   groups[1].failure.bid_count()};
  for_each_tuple_lex(radices, [&](const std::vector<std::size_t>& bids,
                                  std::size_t changed) {
    ev.note_change(changed);
    const Expectation& fast = ev.evaluate(bids);
    const std::vector<GroupDecision> d{{bids[0], f_of[0][bids[0]]},
                                       {bids[1], f_of[1][bids[1]]}};
    const Expectation exact = naive.evaluate_joint_exact(d);
    EXPECT_NEAR(fast.spot_cost_usd, exact.spot_cost_usd, 1e-9);
    EXPECT_NEAR(fast.p_complete_on_spot, exact.p_complete_on_spot, 1e-9);
    EXPECT_NEAR(fast.od_cost_usd, exact.od_cost_usd, exact.od_cost_usd * 0.02 + 0.05);
    EXPECT_NEAR(fast.spot_time_h, exact.spot_time_h, 0.25 + 1e-9);
  });
}

TEST(SubsetEvaluatorOracle, BoundsAreAdmissible) {
  const CostModel::Config cfg{.step_hours = 0.25, .ratio_bins = 48};
  for (std::uint64_t seed : {3ull, 8128ull}) {
    std::vector<GroupSetup> groups;
    for (std::uint64_t g = 0; g < 3; ++g) groups.push_back(random_group(seed * 7 + g));
    const OnDemandChoice od = make_od();
    const auto f_of = synthetic_f_of(groups, seed);
    const CostTables tables = bid_only_tables(groups, od, cfg, f_of);

    const std::vector<std::size_t> subset{0, 1, 2};
    SubsetEvaluator ev(tables, subset);
    std::vector<std::size_t> radices;
    for (std::size_t g : subset) radices.push_back(groups[g].failure.bid_count());
    for_each_tuple_lex(radices, [&](const std::vector<std::size_t>& bids,
                                    std::size_t changed) {
      ev.note_change(changed);
      const double cost = ev.evaluate(bids).cost_usd;
      // Not approximately: the bounds are constructed to hold bitwise.
      EXPECT_LE(ev.subset_cost_bound(), cost);
      for (std::size_t level = 0; level < subset.size(); ++level)
        EXPECT_LE(ev.cost_lower_bound(bids, level), cost) << "level " << level;
    });
  }
}

TEST(SubsetEvaluatorOracle, ResetReusesStateBitIdentically) {
  // One evaluator reset across random subsets, as a solve resets its one
  // evaluator per subset: short-wall and long-wall groups alternate, so the
  // common lifetime grid shrinks and grows between resets and the fold
  // levels above 0 hold whatever the last subset left there.
  const CostModel::Config cfg{.step_hours = 0.25, .ratio_bins = 40};
  std::vector<GroupSetup> groups;
  for (std::uint64_t g = 0; g < 6; ++g) {
    GroupSetup grp = random_group(4242 + g);
    grp.t_steps = g % 2 == 0 ? 4 : 60;
    groups.push_back(std::move(grp));
  }
  const OnDemandChoice od = make_od();
  const auto f_of = synthetic_f_of(groups, 4242);
  const CostTables tables = bid_only_tables(groups, od, cfg, f_of);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto longest_wall = [&](const std::vector<std::size_t>& subset) {
    std::size_t w = 0;
    for (std::size_t g : subset) w = std::max(w, tables.max_w_ceil(g));
    return w;
  };

  std::mt19937_64 rng(2718);
  std::optional<SubsetEvaluator> reused;
  std::size_t last_wall = 0;
  bool grew = false, shrank = false;
  for (int round = 0; round < 80; ++round) {
    std::vector<std::size_t> subset(groups.size());
    std::iota(subset.begin(), subset.end(), std::size_t{0});
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(1 + rng() % 3);
    const std::size_t k = subset.size();
    const std::size_t wall = longest_wall(subset);
    grew = grew || (reused && wall > last_wall);
    shrank = shrank || (reused && wall < last_wall);
    last_wall = wall;

    if (reused)
      reused->reset(subset);
    else
      reused.emplace(tables, subset);
    SubsetEvaluator fresh(tables, subset);
    ASSERT_EQ(reused->size(), k);
    EXPECT_EQ(bits(reused->subset_cost_bound()), bits(fresh.subset_cost_bound()))
        << "round " << round;

    std::vector<const GroupSetup*> view;
    for (std::size_t g : subset) view.push_back(&groups[g]);
    const CostModel naive(view, od, cfg);
    std::vector<std::size_t> bids(k, 0);
    std::vector<GroupDecision> decisions(k);
    for (int step = 0; step < 12; ++step) {
      // The first tuple after a reset claims nothing changed: the reset
      // itself must send the fold back to level 0.
      const std::size_t change = step == 0 ? k : rng() % k;
      for (std::size_t i = step == 0 ? 0 : change; i < k; ++i)
        bids[i] = rng() % tables.choice_count(subset[i]);
      reused->note_change(change);
      fresh.note_change(change);
      const Expectation got = reused->evaluate(bids);
      expect_bit_equal(got, fresh.evaluate(bids), "reset vs fresh");
      for (std::size_t i = 0; i < k; ++i)
        decisions[i] = {bids[i], f_of[subset[i]][bids[i]]};
      expect_bit_equal(got, naive.evaluate(decisions), "reset vs naive");
      for (std::size_t level = 0; level < k; ++level)
        EXPECT_EQ(bits(reused->cost_lower_bound(bids, level)),
                  bits(fresh.cost_lower_bound(bids, level)))
            << "round " << round << " level " << level;
    }
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(shrank);
}

// --- End-to-end plan identity: branch-and-bound vs the exhaustive scan. ---

class EnginePlanIdentity : public ::testing::Test {
 protected:
  /// Shrinks a config to a search the exhaustive scan finishes quickly.
  static OptimizerConfig small(OptimizerConfig c) {
    c.max_candidates = 4;
    c.max_groups = std::min(c.max_groups, 2);
    c.setup.log_levels = 4;
    c.setup.failure.samples = 400;
    c.ratio_bins = 48;
    return c;
  }
  static OptimizerConfig base_config() { return small(OptimizerConfig{}); }

  double deadline(const AppProfile& app, double factor) const {
    return OnDemandSelector(&catalog_, &est_).baseline(app).t_h * factor;
  }

  Plan run(const OptimizerConfig& cfg, const AppProfile& app, double factor,
           const std::vector<std::string>& types = {},
           const std::vector<std::string>& zones = {}) const {
    return SompiOptimizer(&catalog_, &est_, cfg)
        .optimize(app, market_, deadline(app, factor), nullptr, types, zones);
  }

  Plan reference(const OptimizerConfig& cfg, const AppProfile& app, double factor,
                 const std::vector<std::string>& types = {},
                 const std::vector<std::string>& zones = {}) const {
    return reference_optimize(catalog_, est_, cfg, app, market_, deadline(app, factor), types,
                              zones);
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/123);
};

TEST_F(EnginePlanIdentity, PrunedIncrementalMatchesReference) {
  const struct {
    const char* app;
    double factor;
  } cases[] = {{"BT", 2.0}, {"SP", 1.5}, {"FT", 1.15}, {"LU", 1.3}};
  for (const auto& c : cases) {
    const AppProfile app = paper_profile(c.app);
    const Plan want = reference(base_config(), app, c.factor);
    const Plan fast = run(base_config(), app, c.factor);
    EXPECT_EQ(plan_fingerprint(fast), plan_fingerprint(want)) << c.app;
    // The fingerprint covers model_evaluations; assert it explicitly
    // anyway so a failure names the field.
    EXPECT_EQ(fast.model_evaluations, want.model_evaluations) << c.app;
  }
}

TEST_F(EnginePlanIdentity, StatsAccountForEveryTuple) {
  const AppProfile bt = paper_profile("BT");

  const Plan exhaustive = reference(base_config(), bt, 2.0);
  // The exhaustive scan performs exactly the logical evaluation count.
  EXPECT_EQ(exhaustive.stats.evaluations, exhaustive.model_evaluations);
  EXPECT_GT(exhaustive.stats.tuples_visited, 0u);
  EXPECT_EQ(exhaustive.stats.tuples_pruned, 0u);
  EXPECT_EQ(exhaustive.stats.subsets_pruned, 0u);

  const Plan pruned = run(base_config(), bt, 2.0);
  // Pruning only ever removes work, and every enumerated tuple and subset
  // is either searched or pruned.
  EXPECT_LE(pruned.stats.evaluations, exhaustive.stats.evaluations);
  EXPECT_EQ(pruned.stats.tuples_visited + pruned.stats.tuples_pruned,
            exhaustive.stats.tuples_visited);
  EXPECT_EQ(pruned.stats.subsets_searched + pruned.stats.subsets_pruned,
            exhaustive.stats.subsets_searched);
  EXPECT_GT(pruned.stats.tuples_pruned, 0u);
}

TEST_F(EnginePlanIdentity, AblationsConstraintsAndPoliciesMatchReference) {
  // Configurations no other identity test reaches: the §5.4.2 ablations
  // (φ disabled, guard off), exactly-k subsets, a constrained scope and the
  // three-policy checkpoint-level set.
  OptimizerConfig exactly_k = base_config();
  exactly_k.enumerate_smaller_subsets = false;
  OptimizerConfig unguarded_pairs = base_config();
  unguarded_pairs.worst_case_guard = false;
  OptimizerConfig multilevel = base_config();
  multilevel.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                              CkptPolicy::cache_xor_s3()};
  const struct {
    const char* name;
    OptimizerConfig config;
    std::vector<std::string> types;
    std::vector<std::string> zones;
  } cases[] = {
      {"w/o-RP", small(without_replication_config()), {}, {}},
      {"w/o-CK", small(without_checkpoint_config()), {}, {}},
      {"All-Unable", small(all_unable_config()), {}, {}},
      {"unguarded k<=2", unguarded_pairs, {}, {}},
      {"exactly k", exactly_k, {}, {}},
      {"constrained", base_config(), {"m1.large", "c3.xlarge", "cc2.8xlarge"},
       {"us-east-1a", "us-east-1c"}},
      {"three policies", multilevel, {}, {}},
  };
  std::size_t spot_plans = 0;
  for (const auto& c : cases) {
    for (const auto& [app_name, factor] :
         {std::pair<const char*, double>{"BT", 1.5}, {"FT", 1.15}, {"LU", 2.0}}) {
      const AppProfile app = paper_profile(app_name);
      const std::string what = std::string(c.name) + " " + app_name;
      const Plan want = reference(c.config, app, factor, c.types, c.zones);
      const Plan fast = run(c.config, app, factor, c.types, c.zones);
      EXPECT_EQ(plan_fingerprint(fast), plan_fingerprint(want)) << what;
      EXPECT_EQ(fast.model_evaluations, want.model_evaluations) << what;
      EXPECT_EQ(fast.stats.tuples_visited + fast.stats.tuples_pruned,
                want.stats.tuples_visited)
          << what;
      spot_plans += fast.uses_spot();
    }
  }
  // The comparison is only meaningful if the searches pick spot plans.
  EXPECT_GT(spot_plans, 10u);
}

}  // namespace
}  // namespace sompi
