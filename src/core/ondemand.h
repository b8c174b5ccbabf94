// On-demand instance-type selection (paper §4.1, Formulas 12–13).
//
// The on-demand cost is independent of the spot decisions, so the choice of
// recovery tier d* decouples from the bid/checkpoint search: pick the type
// with the smallest full-run cost whose runtime fits Deadline × (1 − Slack),
// the slack being the time reserved for checkpointing and recovery.
//
// On-demand zone rule: an on-demand instance is not a spot circle group and
// has no zone, so its runtime is the estimator's empty-zone estimate — the
// platform's host rates with no zone link or derating folded in (the
// catalog columns for the default estimator).
#pragma once

#include <string>
#include <vector>

#include "cloud/catalog.h"
#include "core/problem.h"
#include "profile/app_profile.h"
#include "profile/estimator.h"

namespace sompi {

class OnDemandSelector {
 public:
  OnDemandSelector(const Catalog* catalog, const ExecTimeEstimator* estimator);

  /// Builds the OnDemandChoice for one candidate type.
  OnDemandChoice describe(std::size_t type_index, const AppProfile& app) const;

  /// The paper's d*: cheapest full-run cost subject to
  /// T_d <= deadline × (1 − slack). When no type fits, returns the fastest
  /// type with feasible = false (the optimizer then falls back to it anyway —
  /// there is no better option). A non-empty `allowed_types` (catalog type
  /// names) restricts both choices to those types.
  OnDemandChoice select(const AppProfile& app, double deadline_h, double slack,
                        const std::vector<std::string>& allowed_types = {}) const;

  /// The paper's Baseline: the on-demand type with the minimal execution
  /// time, regardless of cost (§5.1 "Comparisons").
  OnDemandChoice baseline(const AppProfile& app) const;

 private:
  const Catalog* catalog_;
  const ExecTimeEstimator* estimator_;
};

}  // namespace sompi
