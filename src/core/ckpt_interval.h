// The checkpoint-interval function F = φ(P) (paper §4.2.2 "Reducing problem
// dimension", Theorem 1).
//
// Checkpointing is independent per circle group, so the optimal interval for
// a group depends only on that group's bid: minimizing the group's own
// expected-cost contribution
//
//   J_i(F) = S_i·M_i·h·E[lifetime(F)]  +  od_rate·od_T·E[Ratio(F)]
//
// yields φ_i(P_i). We offer the paper's numeric minimization over a small
// interval grid, and the Young/Daly closed form sqrt(2·O·MTBF(P)) cited by
// the paper ([10]) as a cross-check/ablation.
#pragma once

#include <vector>

#include "core/problem.h"

namespace sompi {

enum class PhiMode {
  kNumeric,    ///< minimize J_i(F) over a candidate grid (default)
  kYoungDaly,  ///< closed form sqrt(2·O_i·MTBF_i(P_i))
  kDisabled,   ///< F_i = T_i: never checkpoint (the w/o-CK ablation)
};

class CheckpointPlanner {
 public:
  struct Config {
    PhiMode mode = PhiMode::kNumeric;
    /// Interval candidates for the numeric mode (geometric grid over [1, T]
    /// plus the Young/Daly point and T itself).
    std::size_t grid_points = 24;
    double step_hours = 0.25;
    std::size_t ratio_bins = 200;
  };

  explicit CheckpointPlanner(Config config) : config_(config) {}

  /// Young/Daly interval in steps, clamped to [1, T_i]. `o_scale` is the
  /// checkpoint-level policy's O multiplier (1.0 = the flat S3 path; exact).
  static int young_daly(const GroupSetup& group, std::size_t bid_index,
                        double o_scale = 1.0);

  /// φ_i(P_i): the checkpoint interval for `group` at the given bid level.
  /// `od` supplies the recovery price used by the numeric objective. The
  /// optional scales evaluate φ under a checkpoint-level policy's effective
  /// O_i/R_i; the defaults multiply by exactly 1.0 and are bit-identical to
  /// the unscaled form.
  int choose(const GroupSetup& group, std::size_t bid_index, const OnDemandChoice& od,
             double o_scale = 1.0, double r_scale = 1.0) const;

  /// φ at one bid under each policy's scales: entry p equals
  /// choose(group, bid_index, od, policies[p].o_scale, policies[p].r_scale).
  /// The bid's pmf row, lifetime sums and MTBF are read once for every
  /// policy and candidate interval, and each interval's E[Ratio] is summed
  /// per checkpoint cycle (GroupSchedule::for_each_ratio_run) in the same
  /// ascending-t order objective() uses, so the result is bit-identical.
  std::vector<int> choose(const GroupSetup& group, std::size_t bid_index,
                          const OnDemandChoice& od,
                          const std::vector<CkptPolicy>& policies) const;

  /// The single-group objective J_i(F) — the per-step oracle that choose()
  /// minimizes, exposed for tests and the φ optimality property check.
  double objective(const GroupSetup& group, std::size_t bid_index, int f_steps,
                   const OnDemandChoice& od, double o_scale = 1.0,
                   double r_scale = 1.0) const;

  /// The numeric mode's candidate grid for a given T (deduplicated,
  /// ascending, always contains 1 and T).
  std::vector<int> candidate_intervals(int t_steps, int young) const;

 private:
  Config config_;
};

}  // namespace sompi
