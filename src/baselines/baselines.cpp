#include "baselines/baselines.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/error.h"
#include "core/ckpt_interval.h"
#include "core/ondemand.h"

namespace sompi {

namespace {
/// A bid no historical price can exceed — the paper's "$999".
constexpr double kInfiniteBid = 999.0;
}  // namespace

BaselineFactory::BaselineFactory(const Catalog* catalog, const ExecTimeEstimator* estimator,
                                 SetupConfig setup, int marathe_replicas)
    : catalog_(catalog), estimator_(estimator), setup_(std::move(setup)),
      marathe_replicas_(marathe_replicas) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
  SOMPI_REQUIRE(marathe_replicas_ >= 1);
}

Plan BaselineFactory::on_demand_only(const AppProfile& app, double deadline_h) const {
  const OnDemandSelector selector(catalog_, estimator_);
  Plan plan;
  plan.app = app.name;
  plan.step_hours = setup_.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = selector.select(app, deadline_h, /*slack=*/0.0);
  plan.expected.cost_usd = plan.expected.od_cost_usd = plan.od.full_cost_usd();
  plan.expected.time_h = plan.expected.od_time_h = plan.od.t_h;
  plan.expected.e_min_ratio = 1.0;
  return plan;
}

Plan BaselineFactory::replicate_type(const AppProfile& app, const Market& history,
                                     double deadline_h, std::size_t type_index, double bid_usd,
                                     bool checkpoints) const {
  const SetupBuilder builder(catalog_, estimator_);
  const OnDemandSelector selector(catalog_, estimator_);

  Plan plan;
  plan.app = app.name;
  plan.step_hours = setup_.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = selector.select(app, deadline_h, /*slack=*/0.2);

  std::vector<GroupSetup> setups;
  std::vector<GroupDecision> decisions;
  CheckpointPlanner::Config phi_cfg;
  phi_cfg.mode = checkpoints ? PhiMode::kYoungDaly : PhiMode::kDisabled;
  phi_cfg.step_hours = setup_.step_hours;
  const CheckpointPlanner phi(phi_cfg);

  const std::size_t replicas =
      std::min<std::size_t>(static_cast<std::size_t>(marathe_replicas_),
                            catalog_->zones().size());
  for (std::size_t z = 0; z < replicas; ++z) {
    const CircleGroupSpec spec{type_index, z};
    GroupSetup g = builder.build_with_bids(app, spec, history, setup_, {bid_usd});
    const int f = phi.choose(g, /*bid_index=*/0, plan.od);
    decisions.push_back({0, f});
    setups.push_back(std::move(g));
  }

  std::vector<const GroupSetup*> view;
  for (const auto& g : setups) view.push_back(&g);
  const CostModel model(std::move(view), plan.od,
                        {.step_hours = setup_.step_hours, .ratio_bins = 200});
  plan.expected = model.evaluate(decisions);
  plan.spot_feasible = plan.expected.time_h <= deadline_h;

  for (std::size_t i = 0; i < setups.size(); ++i) {
    const auto& g = setups[i];
    plan.groups.push_back(GroupPlan{
        .spec = g.spec,
        .name = catalog_->group_name(g.spec),
        .instances = g.instances,
        .t_steps = g.t_steps,
        .o_steps = g.o_steps,
        .r_steps = g.r_steps,
        .bid_usd = bid_usd,
        .f_steps = decisions[i].f_steps,
    });
  }
  return plan;
}

Plan BaselineFactory::marathe(const AppProfile& app, const Market& history, double deadline_h,
                              bool optimize_type) const {
  if (!optimize_type) {
    const std::size_t cc2 = catalog_->type_index("cc2.8xlarge");
    return replicate_type(app, history, deadline_h, cc2,
                          catalog_->type(cc2).ondemand_usd_h, /*checkpoints=*/true);
  }
  // Marathe-Opt: evaluate their algorithm per candidate type, keep the
  // cheapest expectation that meets the deadline.
  Plan best;
  double best_cost = std::numeric_limits<double>::infinity();
  Plan fastest;
  double fastest_time = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < catalog_->types().size(); ++d) {
    Plan p = replicate_type(app, history, deadline_h, d, catalog_->type(d).ondemand_usd_h,
                            /*checkpoints=*/true);
    if (p.expected.time_h < fastest_time) {
      fastest_time = p.expected.time_h;
      fastest = p;
    }
    if (!p.spot_feasible) continue;
    if (p.expected.cost_usd < best_cost) {
      best_cost = p.expected.cost_usd;
      best = std::move(p);
    }
  }
  // Nothing met the deadline: fall back to the fastest replicated setup.
  return best_cost < std::numeric_limits<double>::infinity() ? best : fastest;
}

Plan BaselineFactory::single_group(const AppProfile& app, const Market& history,
                                   double deadline_h, const CircleGroupSpec& spec,
                                   double bid_usd) const {
  const SetupBuilder builder(catalog_, estimator_);
  const OnDemandSelector selector(catalog_, estimator_);

  Plan plan;
  plan.app = app.name;
  plan.step_hours = setup_.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = selector.select(app, deadline_h, /*slack=*/0.2);

  GroupSetup g = builder.build_with_bids(app, spec, history, setup_, {bid_usd});
  const std::vector<GroupDecision> decisions{{0, g.t_steps}};  // no checkpoints
  const CostModel model({&g}, plan.od, {.step_hours = setup_.step_hours, .ratio_bins = 200});
  plan.expected = model.evaluate(decisions);
  plan.spot_feasible = plan.expected.time_h <= deadline_h;
  plan.groups.push_back(GroupPlan{
      .spec = g.spec,
      .name = catalog_->group_name(g.spec),
      .instances = g.instances,
      .t_steps = g.t_steps,
      .o_steps = g.o_steps,
      .r_steps = g.r_steps,
      .bid_usd = bid_usd,
      .f_steps = g.t_steps,
  });
  return plan;
}

CircleGroupSpec BaselineFactory::cheapest_group(
    const AppProfile& app, const Market& history, double deadline_h,
    const std::function<double(const SpotTrace&)>& running_price) const {
  const std::vector<CircleGroupSpec> groups = catalog_->all_groups();
  const CircleGroupSpec* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const CircleGroupSpec& spec : groups) {
    // Timed in the group's own zone, exactly as single_group() builds it.
    const double t_h = estimator_->hours(app, catalog_->type(spec.type_index),
                                         catalog_->zone(spec.zone_index).name);
    if (t_h > deadline_h) continue;
    const double cost = running_price(history.trace(spec)) *
                        catalog_->instances_for(spec.type_index, app.processes) * t_h;
    if (cost < best_cost) {
      best_cost = cost;
      best = &spec;
    }
  }
  SOMPI_REQUIRE_MSG(best != nullptr, "no instance type meets the deadline");
  return *best;
}

Plan BaselineFactory::spot_inf(const AppProfile& app, const Market& history,
                               double deadline_h) const {
  // At an unbeatable bid the expected running price is the overall mean.
  const CircleGroupSpec best = cheapest_group(
      app, history, deadline_h,
      [](const SpotTrace& trace) { return trace.mean_below(trace.max_price()); });
  return single_group(app, history, deadline_h, best, kInfiniteBid);
}

Plan BaselineFactory::spot_avg(const AppProfile& app, const Market& history,
                               double deadline_h) const {
  // Bid the historical average; expected running price is the mean of
  // prices below that bid.
  const auto average = [](const SpotTrace& trace) { return trace.mean_below(trace.max_price()); };
  const CircleGroupSpec best =
      cheapest_group(app, history, deadline_h,
                     [&](const SpotTrace& trace) { return trace.mean_below(average(trace)); });
  return single_group(app, history, deadline_h, best, average(history.trace(best)));
}

}  // namespace sompi
