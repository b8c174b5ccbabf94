#include "support/reference_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "core/ckpt_interval.h"
#include "core/ondemand.h"
#include "core/schedule.h"
#include "core/setup_builder.h"

namespace sompi {

double reference_group_worst_h(const GroupSetup& g, int f_steps, double o_scale,
                               double r_scale, double step_h, double od_t_h) {
  const GroupSchedule sched(g.t_steps, f_steps, g.o_steps * o_scale, g.r_steps * r_scale);
  const double w = sched.wall_duration();
  double worst = w * step_h;
  for (std::size_t t = 0; t < static_cast<std::size_t>(std::ceil(w)); ++t) {
    const double candidate =
        static_cast<double>(t) * step_h + sched.ratio_at(static_cast<double>(t)) * od_t_h;
    worst = std::max(worst, candidate);
  }
  return worst;
}

int reference_f_guard_max(const GroupSetup& g, double o_scale, double r_scale, double step_h,
                          double od_t_h, double deadline_h) {
  const auto fits = [&](int f) {
    return reference_group_worst_h(g, f, o_scale, r_scale, step_h, od_t_h) <= deadline_h;
  };
  if (!fits(1)) return 0;
  int lo = 1, hi = g.t_steps;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::vector<GroupSetup> reference_candidates(const Catalog& catalog,
                                             const ExecTimeEstimator& estimator,
                                             const OptimizerConfig& config,
                                             const AppProfile& app, const Market& market,
                                             double deadline_h,
                                             const std::vector<std::string>& allowed_types,
                                             const std::vector<std::string>& allowed_zones) {
  const auto allowed = [](const std::vector<std::string>& names, const std::string& name) {
    return names.empty() || std::find(names.begin(), names.end(), name) != names.end();
  };
  // Every allowed (type, zone) whose productive runtime fits the deadline.
  const SetupBuilder builder(&catalog, &estimator);
  std::vector<GroupSetup> candidates;
  for (const CircleGroupSpec& spec : catalog.all_groups()) {
    const InstanceType& type = catalog.type(spec.type_index);
    const std::string& zone = catalog.zone(spec.zone_index).name;
    if (!allowed(allowed_types, type.name) || !allowed(allowed_zones, zone)) continue;
    if (estimator.hours(app, type, zone) > deadline_h) continue;
    candidates.push_back(builder.build(app, spec, market, config.setup));
  }

  // Keep the max_candidates groups with the lowest expected full-run spot
  // cost at the top bid.
  if (candidates.size() > config.max_candidates) {
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    auto score = [&](std::size_t i) {
      const auto& g = candidates[i];
      const std::size_t top = g.failure.bid_count() - 1;
      return g.failure.expected_price(top) * g.instances * g.t_steps;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return score(a) < score(b); });
    std::vector<GroupSetup> kept;
    kept.reserve(config.max_candidates);
    for (std::size_t i = 0; i < config.max_candidates; ++i)
      kept.push_back(std::move(candidates[order[i]]));
    candidates = std::move(kept);
  }
  return candidates;
}

Plan reference_optimize(const Catalog& catalog, const ExecTimeEstimator& estimator,
                        const OptimizerConfig& config, const AppProfile& app,
                        const Market& market, double deadline_h,
                        const std::vector<std::string>& allowed_types,
                        const std::vector<std::string>& allowed_zones) {
  SOMPI_REQUIRE(deadline_h > 0.0);
  const OnDemandChoice od =
      OnDemandSelector(&catalog, &estimator).select(app, deadline_h, config.slack, allowed_types);
  std::vector<GroupSetup> candidates = reference_candidates(
      catalog, estimator, config, app, market, deadline_h, allowed_types, allowed_zones);

  Plan plan;
  plan.app = app.name;
  plan.step_hours = config.setup.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = od;

  // Composite choice c = p · bid_count(g) + b per group.
  std::vector<CkptPolicy> policies = config.ckpt_policies;
  if (policies.empty()) policies.push_back(CkptPolicy{});
  const std::size_t n_pol = policies.size();

  // φ per composite (group, policy, bid) choice.
  CheckpointPlanner::Config phi_cfg;
  phi_cfg.mode = config.phi_mode;
  phi_cfg.step_hours = config.setup.step_hours;
  phi_cfg.ratio_bins = config.ratio_bins;
  const CheckpointPlanner phi(phi_cfg);
  std::vector<std::vector<int>> f_of(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t bids = candidates[i].failure.bid_count();
    f_of[i].resize(n_pol * bids);
    for (std::size_t c = 0; c < f_of[i].size(); ++c) {
      const CkptPolicy& pol = policies[c / bids];
      f_of[i][c] = phi.choose(candidates[i], c % bids, od, pol.o_scale, pol.r_scale);
    }
  }

  const CostModel::Config model_cfg{.step_hours = config.setup.step_hours,
                                    .ratio_bins = config.ratio_bins};
  const double step_h = config.setup.step_hours;
  const auto group_worst_h = [&](const GroupSetup& g, int f_steps, double o_scale,
                                 double r_scale) {
    return reference_group_worst_h(g, f_steps, o_scale, r_scale, step_h, od.t_h);
  };

  // Largest interval whose worst case fits the deadline, per (group, policy).
  std::vector<int> f_guard_max(candidates.size() * n_pol, 0);
  if (config.worst_case_guard) {
    for (std::size_t idx = 0; idx < f_guard_max.size(); ++idx) {
      const CkptPolicy& pol = policies[idx % n_pol];
      f_guard_max[idx] = reference_f_guard_max(candidates[idx / n_pol], pol.o_scale,
                                               pol.r_scale, step_h, od.t_h, deadline_h);
    }
  }

  struct Best {
    double cost = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> subset;
    std::vector<GroupDecision> decisions;
    Expectation expectation;
  };
  Best best;
  PlanStats& stats = plan.stats;

  const auto scan_subset = [&](const std::vector<std::size_t>& subset) {
    const std::size_t k = subset.size();
    ++stats.subsets_searched;
    std::vector<const GroupSetup*> view;
    std::vector<std::size_t> radices;
    for (std::size_t i : subset) {
      view.push_back(&candidates[i]);
      radices.push_back(n_pol * candidates[i].failure.bid_count());
    }
    const CostModel model(std::move(view), od, model_cfg);

    Best sub;
    const auto evaluate_and_accept = [&](const std::vector<GroupDecision>& d,
                                         bool replication_only) {
      const Expectation e = model.evaluate(d);
      ++stats.evaluations;
      if (replication_only && 1.0 - e.p_complete_on_spot > kMissTolerance) return;
      if (e.time_h <= deadline_h && e.cost_usd < sub.cost) {
        sub.cost = e.cost_usd;
        sub.subset = subset;
        sub.decisions = d;
        sub.expectation = e;
      }
    };
    const auto consider = [&](const std::vector<GroupDecision>& d) {
      if (config.worst_case_guard) {
        double worst = 0.0;
        for (std::size_t i = 0; i < k; ++i)
          worst = std::max(worst, group_worst_h(candidates[subset[i]], d[i].f_steps,
                                                d[i].o_scale, d[i].r_scale));
        if (worst > deadline_h) {
          // Worst case does not fit: only GENUINE replication may stand in
          // — at least two replicas, each individually likely to finish
          // (no phantom replicas whose bid dies on arrival), with the
          // joint wipeout below the tolerance. A lone group must not pass
          // here: a short history window can miss rare spikes entirely
          // and report survival 1.0.
          if (k < 2) return;
          for (std::size_t i = 0; i < k; ++i) {
            const GroupSetup& g = candidates[subset[i]];
            const GroupSchedule sched(g.t_steps, d[i].f_steps, g.o_steps * d[i].o_scale,
                                      g.r_steps * d[i].r_scale);
            if (g.failure.survival_at(d[i].bid_index, sched.wall_duration()) < 0.5) return;
          }
          evaluate_and_accept(d, /*replication_only=*/true);
          return;
        }
      }
      evaluate_and_accept(d, /*replication_only=*/false);
    };

    std::vector<GroupDecision> decisions(k);
    for_each_tuple(radices, [&](const std::vector<std::size_t>& digits) {
      ++stats.tuples_visited;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t bids = candidates[subset[i]].failure.bid_count();
        const std::size_t p = digits[i] / bids;
        decisions[i] = GroupDecision{digits[i] % bids, f_of[subset[i]][digits[i]],
                                     policies[p].o_scale, policies[p].r_scale, p};
      }
      consider(decisions);
      // Single-group plans get a second shot with the guard-clamped
      // interval: denser checkpoints buy worst-case deadline safety. (Not
      // when checkpointing is ablated away — the clamp would silently
      // re-enable it.)
      if (config.worst_case_guard && k == 1 && config.phi_mode != PhiMode::kDisabled) {
        const int clamp = f_guard_max[subset[0] * n_pol + decisions[0].policy_index];
        if (clamp >= 1 && clamp < decisions[0].f_steps) {
          std::vector<GroupDecision> clamped = decisions;
          clamped[0].f_steps = clamp;
          consider(clamped);
        }
      }
    });
    // Strict improvement: the earliest subset wins a cost tie.
    if (sub.cost < best.cost) best = std::move(sub);
  };

  const std::size_t k_max = std::min<std::size_t>(config.max_groups, candidates.size());
  const std::size_t k_min = config.enumerate_smaller_subsets ? 1 : std::max<std::size_t>(k_max, 1);
  for (std::size_t k = k_min; k <= k_max; ++k)
    for_each_combination(candidates.size(), k, scan_subset);

  plan.model_evaluations = stats.evaluations;
  plan.spot_feasible = best.cost < std::numeric_limits<double>::infinity();
  if (!plan.spot_feasible || best.cost >= od.full_cost_usd()) {
    plan.expected.cost_usd = plan.expected.od_cost_usd = od.full_cost_usd();
    plan.expected.time_h = plan.expected.od_time_h = od.t_h;
    plan.expected.e_min_ratio = 1.0;
    return plan;
  }
  for (std::size_t i = 0; i < best.subset.size(); ++i) {
    const GroupSetup& g = candidates[best.subset[i]];
    const GroupDecision& d = best.decisions[i];
    plan.groups.push_back(GroupPlan{
        .spec = g.spec,
        .name = catalog.group_name(g.spec),
        .instances = g.instances,
        .t_steps = g.t_steps,
        .o_steps = g.o_steps * d.o_scale,
        .r_steps = g.r_steps * d.r_scale,
        .bid_usd = g.failure.bid(d.bid_index),
        .f_steps = d.f_steps,
        .ckpt_policy = policies[d.policy_index].name,
    });
  }
  plan.expected = best.expectation;
  return plan;
}

CostTables bid_only_tables(const std::vector<GroupSetup>& groups, const OnDemandChoice& od,
                           CostModel::Config config,
                           const std::vector<std::vector<int>>& f_of) {
  SOMPI_REQUIRE(f_of.size() == groups.size());
  std::vector<std::shared_ptr<const GroupCostTable>> blocks;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SOMPI_REQUIRE(f_of[g].size() == groups[g].failure.bid_count());
    std::vector<ChoiceSpec> choices(f_of[g].size());
    for (std::size_t b = 0; b < choices.size(); ++b) {
      choices[b].bid_index = b;
      choices[b].f_steps = f_of[g][b];
    }
    blocks.push_back(std::make_shared<const GroupCostTable>(groups[g], od, config, choices));
  }
  return CostTables(groups, od, config, std::move(blocks));
}

}  // namespace sompi
