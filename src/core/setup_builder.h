// Builds GroupSetup problem instances (T_i, M_i, O_i, R_i, failure model)
// from an application profile and a market history. Shared by the SOMPI
// optimizer and every baseline so they all see the same problem.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/catalog.h"
#include "core/failure_model_cache.h"
#include "core/problem.h"
#include "profile/app_profile.h"
#include "profile/estimator.h"
#include "trace/market.h"

namespace sompi {

/// Which bid grid the failure models are built over.
enum class BidGridKind { kLogarithmic, kUniform };

struct SetupConfig {
  double step_hours = 0.25;
  BidGridKind bid_grid = BidGridKind::kLogarithmic;
  /// Levels of the logarithmic grid (bids per group).
  std::size_t log_levels = 7;
  /// Points of the uniform grid (ablation; the paper's example uses 100).
  std::size_t uniform_points = 16;
  /// Bid-grid ceiling as a multiple of the type's on-demand price. Bidding
  /// above on-demand is economically irrational — on-demand is a guaranteed
  /// alternative at that price — and makes the group a cost-variance bomb
  /// when a spike passes under a historical-maximum bid. The grid top is
  /// min(historical max, on-demand × this factor).
  double max_bid_over_ondemand = 1.0;
  FailureEstimationConfig failure;
};

/// Tags the knobs a bid grid is derived from; FailureModelCache keys its
/// entries by it. A collision only makes two grids share one entry, never a
/// wrong model: the cache matches bids exactly.
std::uint64_t bid_grid_tag(const SetupConfig& config);

class SetupBuilder {
 public:
  SetupBuilder(const Catalog* catalog, const ExecTimeEstimator* estimator);

  /// Builds the setup for one circle group from its price history.
  /// The failure-model horizon automatically covers the densest possible
  /// checkpoint schedule (F = 1). With `models`, the failure model comes from
  /// that cache (a view of the group's shared model); without, it is built
  /// here. Models built either way add to `*tally` (when non-null).
  GroupSetup build(const AppProfile& app, const CircleGroupSpec& spec, const Market& history,
                   const SetupConfig& config, FailureModelCache* models = nullptr,
                   FailureModelTally* tally = nullptr) const;

  /// Like build() from `models`, but returns nothing when another caller is
  /// building this group's model right now (FailureModelCache::try_get).
  std::optional<GroupSetup> try_build(const AppProfile& app, const CircleGroupSpec& spec,
                                      const Market& history, const SetupConfig& config,
                                      FailureModelCache& models,
                                      FailureModelTally* tally = nullptr) const;

  /// Like build(), but over an explicit bid grid (baselines that fix the bid
  /// by policy — e.g. "the on-demand price" — rather than by search).
  GroupSetup build_with_bids(const AppProfile& app, const CircleGroupSpec& spec,
                             const Market& history, const SetupConfig& config,
                             std::vector<double> bids) const;

  const Catalog& catalog() const { return *catalog_; }
  const ExecTimeEstimator& estimator() const { return *estimator_; }

 private:
  /// The bids of build()'s grid over `spec`'s history.
  std::vector<double> grid_bids(const CircleGroupSpec& spec, const Market& history,
                                const SetupConfig& config) const;
  /// Nothing only when `wait` is false and `models` is building this
  /// group's model for another caller.
  std::optional<GroupSetup> assemble(const AppProfile& app, const CircleGroupSpec& spec,
                                     const Market& history, const SetupConfig& config,
                                     std::vector<double> bids, FailureModelCache* models,
                                     FailureModelTally* tally, bool wait) const;

  const Catalog* catalog_;
  const ExecTimeEstimator* estimator_;
};

}  // namespace sompi
