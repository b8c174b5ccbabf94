// Test-support oracles for the optimizer's Level-2 search.
//
// reference_optimize() is the literal pre-optimization scan: a fresh
// CostModel::evaluate per bid tuple, every tuple of every k-of-K subset
// walked in colex order, no tables and no pruning. It is assembled only from
// public product pieces (SetupBuilder, OnDemandSelector, CheckpointPlanner,
// GroupSchedule, CostModel) and never calls SompiOptimizer, so comparing the
// product's branch-and-bound plans against it is a genuine differential
// check rather than the search checking itself.
//
// The tuple walkers and the bid-only table builder serve the evaluator-level
// oracles in tests/test_cost_model_fast.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cloud/catalog.h"
#include "common/combinatorics.h"
#include "common/error.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "profile/app_profile.h"
#include "profile/estimator.h"
#include "trace/market.h"

namespace sompi {

/// The cold optimize(app, market, deadline_h, nullptr, allowed_types,
/// allowed_zones) by exhaustive scan. The plan is bit-identical to the
/// product's; `model_evaluations` and `stats` are the exhaustive counts:
/// every tuple visited, every logical evaluation performed, nothing pruned.
/// Timers are left at zero.
Plan reference_optimize(const Catalog& catalog, const ExecTimeEstimator& estimator,
                        const OptimizerConfig& config, const AppProfile& app,
                        const Market& market, double deadline_h,
                        const std::vector<std::string>& allowed_types = {},
                        const std::vector<std::string>& allowed_zones = {});

/// CostTables with one choice per bid (interval tied via f_of[g][b], unit
/// O/R scales, policy 0), composed from freshly built per-group blocks.
CostTables bid_only_tables(const std::vector<GroupSetup>& groups, const OnDemandChoice& od,
                           CostModel::Config config,
                           const std::vector<std::vector<int>>& f_of);

/// Calls fn(digits) for every tuple in the mixed-radix product space with
/// the given per-position radices, in colex order (digit 0 fastest) — the
/// reference scan's order. digits is reused across calls.
template <typename Fn>
void for_each_tuple(const std::vector<std::size_t>& radices, Fn&& fn) {
  for (std::size_t r : radices) SOMPI_REQUIRE(r >= 1);
  std::vector<std::size_t> digits(radices.size(), 0);
  for (;;) {
    fn(digits);
    std::size_t i = 0;
    while (i < radices.size() && ++digits[i] == radices[i]) digits[i++] = 0;
    if (i == radices.size()) return;
  }
}

/// Calls fn(digits, changed_from) for every tuple in lexicographic order
/// (last digit fastest), driven by the product's TupleOdometer.
/// changed_from is the lowest index whose digit differs from the previous
/// call (0 on the first call). digits is reused across calls.
template <typename Fn>
void for_each_tuple_lex(const std::vector<std::size_t>& radices, Fn&& fn) {
  TupleOdometer od(radices);
  std::size_t changed = 0;
  while (!od.done()) {
    fn(od.digits(), changed);
    changed = od.advance();
  }
}

}  // namespace sompi
