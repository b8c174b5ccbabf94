// The comparison approaches of the paper's evaluation (§5.3):
//
//   On-demand    — cheapest on-demand type meeting the deadline, no spot.
//   Marathe      — Marathe et al. [30], the state of the art: replicate ONE
//                  instance type (cc2.8xlarge by default) across availability
//                  zones, bid at the on-demand price, Young/Daly checkpoints.
//   Marathe-Opt  — Marathe with the replicated type chosen per application.
//   Spot-Inf     — one spot group, effectively infinite bid ($999), no fault
//                  tolerance (§5.3.2).
//   Spot-Avg     — one spot group, bid = historical average price, no fault
//                  tolerance (§5.3.2).
//
// The ablations of §5.4.2 (All-Unable, w/o-RP, w/o-CK, w/o-MT) are SOMPI
// itself with parts disabled and are expressed through OptimizerConfig /
// AdaptiveConfig knobs (see ablations.h).
#pragma once

#include <functional>

#include "core/optimizer.h"
#include "trace/market.h"

namespace sompi {

class BaselineFactory {
 public:
  /// `marathe_replicas` is Marathe's replication degree: how many
  /// availability zones carry a replica (their dual-redundancy default is
  /// 2; capped at the catalog's zone count).
  BaselineFactory(const Catalog* catalog, const ExecTimeEstimator* estimator,
                  SetupConfig setup, int marathe_replicas = 2);

  /// Cheapest on-demand tier that meets the deadline (no slack reservation —
  /// nothing to checkpoint or recover).
  Plan on_demand_only(const AppProfile& app, double deadline_h) const;

  /// Marathe et al.: `optimize_type` false pins cc2.8xlarge (their default),
  /// true picks the replicated type with the lowest expected cost that meets
  /// the deadline (Marathe-Opt).
  Plan marathe(const AppProfile& app, const Market& history, double deadline_h,
               bool optimize_type) const;

  /// Single spot group, bid so high it is never out-of-bid, no checkpoints.
  Plan spot_inf(const AppProfile& app, const Market& history, double deadline_h) const;

  /// Single spot group, bid = the group's historical average price, no
  /// checkpoints.
  Plan spot_avg(const AppProfile& app, const Market& history, double deadline_h) const;

 private:
  /// Builds a plan that replicates `type_index` across every zone with the
  /// given bid policy; returns the plan plus its model expectation.
  Plan replicate_type(const AppProfile& app, const Market& history, double deadline_h,
                      std::size_t type_index, double bid_usd, bool checkpoints) const;

  /// The deadline-feasible group with the cheapest expected full-run spot
  /// cost, running_price(trace) × instances × T, each candidate timed in its
  /// own zone. Throws when no group meets the deadline.
  CircleGroupSpec cheapest_group(
      const AppProfile& app, const Market& history, double deadline_h,
      const std::function<double(const SpotTrace&)>& running_price) const;

  /// Single-group plan on the given spec with an explicit bid.
  Plan single_group(const AppProfile& app, const Market& history, double deadline_h,
                    const CircleGroupSpec& spec, double bid_usd) const;

  const Catalog* catalog_;
  const ExecTimeEstimator* estimator_;
  SetupConfig setup_;
  int marathe_replicas_;
};

}  // namespace sompi
