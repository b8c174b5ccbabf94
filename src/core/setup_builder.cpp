#include "core/setup_builder.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sompi {

SetupBuilder::SetupBuilder(const Catalog* catalog, const ExecTimeEstimator* estimator)
    : catalog_(catalog), estimator_(estimator) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
}

GroupSetup SetupBuilder::build(const AppProfile& app, const CircleGroupSpec& spec,
                               const Market& history, const SetupConfig& config,
                               const FailureModel* prefix) const {
  const SpotTrace& trace = history.trace(spec);
  SOMPI_REQUIRE(config.max_bid_over_ondemand > 0.0);
  const double ceiling =
      catalog_->type(spec.type_index).ondemand_usd_h * config.max_bid_over_ondemand;
  const double top = std::min(trace.max_price(), ceiling);
  std::vector<double> bids = config.bid_grid == BidGridKind::kLogarithmic
                                 ? logarithmic_bid_grid(top, config.log_levels)
                                 : uniform_bid_grid(top, config.uniform_points);
  return build_with_bids(app, spec, history, config, std::move(bids), prefix);
}

GroupSetup SetupBuilder::build_with_bids(const AppProfile& app, const CircleGroupSpec& spec,
                                         const Market& history, const SetupConfig& config,
                                         std::vector<double> bids,
                                         const FailureModel* prefix) const {
  SOMPI_REQUIRE(config.step_hours > 0.0);
  const InstanceType& type = catalog_->type(spec.type_index);
  // Zone-qualified estimates: with a platform-aware estimator the group's
  // zone folds its fabric/uplink into T_i, O_i and R_i (flat platforms and
  // the catalog-only estimator reproduce the catalog columns bit-exactly).
  const std::string& zone = catalog_->zone(spec.zone_index).name;

  const double t_h = estimator_->hours(app, type, zone);
  const int t_steps = std::max(1, static_cast<int>(std::ceil(t_h / config.step_hours)));

  const CheckpointCosts ck = estimator_->checkpoint_costs(app, type, zone);
  const double o_steps = ck.checkpoint_h / config.step_hours;
  const double r_steps = ck.recovery_h / config.step_hours;

  // Horizon: the densest schedule (F = 1) checkpoints after every step, so
  // the wall duration is at most T·(1 + O) plus rounding headroom.
  FailureEstimationConfig fec = config.failure;
  fec.horizon_steps = static_cast<std::size_t>(
      std::ceil(static_cast<double>(t_steps) * (1.0 + o_steps))) + 2;

  return GroupSetup{
      .spec = spec,
      .instances = catalog_->instances_for(spec.type_index, app.processes),
      .t_steps = t_steps,
      .o_steps = o_steps,
      .r_steps = r_steps,
      .failure = FailureModel(history.trace(spec), std::move(bids), fec, prefix),
  };
}

}  // namespace sompi
