// The optimizer's output: a complete execution plan for one MPI application —
// which circle groups to launch, each group's bid price and checkpoint
// interval, and the on-demand recovery tier. Plans are consumed by the
// replay simulator (src/sim) and the live mini-MPI executor.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/problem.h"

namespace sompi {

/// One circle group's share of a plan.
struct GroupPlan {
  CircleGroupSpec spec;
  std::string name;       ///< "type@zone", for reports
  int instances = 0;      ///< M_i
  int t_steps = 0;        ///< T_i (productive steps)
  double o_steps = 0.0;   ///< O_i — effective, under the chosen level policy
  double r_steps = 0.0;   ///< R_i — effective, under the chosen level policy
  double bid_usd = 0.0;   ///< P_i
  int f_steps = 0;        ///< F_i (== t_steps means no checkpoints)
  /// Checkpoint-level policy name; "s3" is the flat pre-multilevel path
  /// (and is omitted from the plan fingerprint, keeping degenerate plans
  /// byte-identical to their pre-multilevel fingerprints).
  std::string ckpt_policy = "s3";
};

/// Search-work accounting for one optimize() call. Unlike
/// Plan::model_evaluations (the *logical* evaluation count of the exhaustive
/// scan, which is deterministic and part of the plan fingerprint), these
/// count the work the branch-and-bound search *actually* performed. They are
/// exact and reproducible (the search is one serial pass), but they vary
/// with a warm-start incumbent seed and reused tables while the plan does
/// not, so they are deliberately excluded from the plan fingerprint.
struct PlanStats {
  std::size_t evaluations = 0;       ///< cost-model evaluations performed
  std::size_t tuples_visited = 0;    ///< bid tuples reached by the odometer
  std::size_t tuples_pruned = 0;     ///< tuples skipped without evaluation
  std::size_t subtrees_pruned = 0;   ///< odometer subtree cuts taken
  std::size_t subsets_pruned = 0;    ///< whole subsets skipped by their bound
  std::size_t subsets_searched = 0;  ///< subsets actually enumerated
  // Warm-start accounting (DESIGN.md §14): how many per-group cost-table
  // blocks this solve reused from a CostTableStore vs built fresh, and
  // whether the previous plan seeded the B&B incumbent.
  // Like the prune counters these never enter the plan fingerprint — a warm
  // plan is bit-identical to a cold one, only its work accounting differs.
  std::size_t tables_reused = 0;
  std::size_t tables_built = 0;
  std::size_t warm_seeds = 0;
  /// Failure models the candidate setups built (0 from optimize_over): one
  /// per candidate on the cold path; on the warm path only those no scope
  /// sharing the store's model cache had built for the group's history yet.
  std::size_t failure_models_built = 0;
  /// History steps those builds' expected-price sums read: every step on a
  /// cold build, only the appended ones when a warm build resumes the sums
  /// of the group's previous model.
  std::size_t price_steps_read = 0;
};

/// A full plan plus the model's expectation for it and optimizer statistics.
struct Plan {
  std::string app;
  double step_hours = 0.25;
  double deadline_h = 0.0;
  /// Checkpoint state volume (GB), for storage-cost accounting in replay.
  double state_gb = 0.0;
  OnDemandChoice od;
  /// Spot replicas; empty = run on demand only.
  std::vector<GroupPlan> groups;
  /// Model expectation at the chosen decisions (for an on-demand-only plan:
  /// cost = the od full-run cost, time = the od runtime).
  Expectation expected;
  /// True when at least one spot configuration met the deadline in the model.
  bool spot_feasible = false;

  // Optimizer accounting (the paper's "optimization overhead" metric).
  // model_evaluations is the logical count of the exhaustive scan: invariant
  // under pruning and warm starts, and fingerprinted. stats holds what the
  // search did. optimize_seconds is the whole optimize() call's wall
  // time, setup_seconds its candidate-setup share (0 from optimize_over); the
  // two timers are neither fingerprinted nor sent on the wire.
  std::size_t model_evaluations = 0;
  PlanStats stats;
  double optimize_seconds = 0.0;
  double setup_seconds = 0.0;

  bool uses_spot() const { return !groups.empty(); }
};

}  // namespace sompi
