#include "core/setup_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"

namespace sompi {

namespace {

/// Tags the knobs a bid grid is derived from; the cache keys entries by it.
/// A collision only makes two grids share one entry, never a wrong model:
/// the cache matches bids exactly.
std::uint64_t grid_tag(const SetupConfig& config) {
  std::uint64_t tag = 0;
  std::memcpy(&tag, &config.max_bid_over_ondemand, sizeof(tag));
  const bool log = config.bid_grid == BidGridKind::kLogarithmic;
  return tag ^ (static_cast<std::uint64_t>(log ? config.log_levels : config.uniform_points) << 1) ^
         (log ? 0 : 1);
}

}  // namespace

SetupBuilder::SetupBuilder(const Catalog* catalog, const ExecTimeEstimator* estimator)
    : catalog_(catalog), estimator_(estimator) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
}

GroupSetup SetupBuilder::build(const AppProfile& app, const CircleGroupSpec& spec,
                               const Market& history, const SetupConfig& config,
                               FailureModelCache* models, FailureModelTally* tally) const {
  const SpotTrace& trace = history.trace(spec);
  SOMPI_REQUIRE(config.max_bid_over_ondemand > 0.0);
  const double ceiling =
      catalog_->type(spec.type_index).ondemand_usd_h * config.max_bid_over_ondemand;
  const double top = std::min(trace.max_price(), ceiling);
  std::vector<double> bids = config.bid_grid == BidGridKind::kLogarithmic
                                 ? logarithmic_bid_grid(top, config.log_levels)
                                 : uniform_bid_grid(top, config.uniform_points);
  return assemble(app, spec, history, config, std::move(bids), models, tally);
}

GroupSetup SetupBuilder::build_with_bids(const AppProfile& app, const CircleGroupSpec& spec,
                                         const Market& history, const SetupConfig& config,
                                         std::vector<double> bids) const {
  return assemble(app, spec, history, config, std::move(bids), nullptr, nullptr);
}

GroupSetup SetupBuilder::assemble(const AppProfile& app, const CircleGroupSpec& spec,
                                  const Market& history, const SetupConfig& config,
                                  std::vector<double> bids, FailureModelCache* models,
                                  FailureModelTally* tally) const {
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

  const SpotTrace& trace = history.trace(spec);
  const auto model = [&] {
    if (models != nullptr) return models->get(spec, grid_tag(config), trace, bids, fec, tally);
    FailureModel m(trace, std::move(bids), fec);
    if (tally != nullptr) {
      ++tally->built;
      tally->price_steps_read += m.price_steps_read();
    }
    return m;
  };
  return GroupSetup{
      .spec = spec,
      .instances = catalog_->instances_for(spec.type_index, app.processes),
      .t_steps = t_steps,
      .o_steps = o_steps,
      .r_steps = r_steps,
      .failure = model(),
  };
}

}  // namespace sompi
