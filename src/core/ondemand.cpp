#include "core/ondemand.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace sompi {

OnDemandSelector::OnDemandSelector(const Catalog* catalog, const ExecTimeEstimator* estimator)
    : catalog_(catalog), estimator_(estimator) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
}

OnDemandChoice OnDemandSelector::describe(std::size_t type_index, const AppProfile& app) const {
  const InstanceType& type = catalog_->type(type_index);
  OnDemandChoice c;
  c.type_index = type_index;
  c.t_h = estimator_->hours(app, type);  // no zone: the on-demand zone rule
  c.instances = catalog_->instances_for(type_index, app.processes);
  c.rate_usd_h = type.ondemand_usd_h * c.instances;
  return c;
}

OnDemandChoice OnDemandSelector::select(const AppProfile& app, double deadline_h, double slack,
                                        const std::vector<std::string>& allowed_types) const {
  SOMPI_REQUIRE(deadline_h > 0.0);
  SOMPI_REQUIRE(slack >= 0.0 && slack < 1.0);
  const double budget_h = deadline_h * (1.0 - slack);

  OnDemandChoice best;
  OnDemandChoice fastest;
  double best_cost = std::numeric_limits<double>::infinity();
  double fastest_t = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < catalog_->types().size(); ++d) {
    if (!allowed_types.empty() && std::find(allowed_types.begin(), allowed_types.end(),
                                            catalog_->type(d).name) == allowed_types.end())
      continue;
    OnDemandChoice c = describe(d, app);
    if (c.t_h < fastest_t) {
      fastest_t = c.t_h;
      fastest = c;
    }
    if (c.t_h > budget_h) continue;
    c.feasible = true;
    if (c.full_cost_usd() < best_cost) {
      best_cost = c.full_cost_usd();
      best = c;
    }
  }
  // Nothing fits: the fastest tier, which describe() left marked infeasible.
  return best.feasible ? best : fastest;
}

OnDemandChoice OnDemandSelector::baseline(const AppProfile& app) const {
  OnDemandChoice best;
  double best_t = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < catalog_->types().size(); ++d) {
    OnDemandChoice c = describe(d, app);
    if (c.t_h < best_t) {
      best_t = c.t_h;
      best = c;
      best.feasible = true;
    }
  }
  return best;
}

}  // namespace sompi
