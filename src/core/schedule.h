// Checkpoint-cycle arithmetic for one circle group.
//
// Time is discretized to trace steps (the paper floors failure times to
// integers, §3.2.1). A group needs T productive steps; with a checkpoint
// interval of F steps and a per-checkpoint overhead of O steps (fractional —
// checkpoints are much shorter than a step), the wall-clock layout is
//
//   [F productive][O dump][F productive][O dump] ... [tail productive]
//
// checkpoint j completes at wall time j*(F+O). No checkpoint is taken at the
// very end of the run, so a full run takes W = T + O*(ceil(T/F)-1) wall steps.
//
// Everything is inline: the optimizer's derived tables call these per step
// or per checkpoint cycle.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace sompi {

class GroupSchedule {
 public:
  /// Requires T >= 1 productive steps, F in [1, T], O >= 0, R >= 0
  /// (checkpoint and recovery overheads in fractional steps). F == T means
  /// "no checkpoints" (the paper's convention, §3.2).
  GroupSchedule(int t_steps, int f_steps, double o_steps, double r_steps)
      : t_(t_steps), f_(f_steps), o_(o_steps), r_(r_steps) {
    SOMPI_REQUIRE(t_ >= 1);
    SOMPI_REQUIRE(f_ >= 1 && f_ <= t_);
    SOMPI_REQUIRE(o_ >= 0.0);
    SOMPI_REQUIRE(r_ >= 0.0);
  }

  int t_steps() const { return t_; }
  int f_steps() const { return f_; }
  double o_steps() const { return o_; }
  double r_steps() const { return r_; }

  /// Checkpoints taken during a complete run: ceil(T/F) cycles, the final
  /// one ending in completion, not a checkpoint.
  int checkpoints_full_run() const { return (t_ + f_ - 1) / f_ - 1; }

  /// Wall-clock duration of a complete run, in (fractional) steps.
  double wall_duration() const {
    return static_cast<double>(t_) + o_ * checkpoints_full_run();
  }

  /// Checkpoints completed by wall time `t` (capped at the full-run count).
  int checkpoints_by(double t) const {
    if (t <= 0.0) return 0;
    const double cycle = static_cast<double>(f_) + o_;
    // Checkpoint j completes at time j*cycle; count completed ones.
    const int k = static_cast<int>(std::floor(t / cycle));
    return std::min(k, checkpoints_full_run());
  }

  /// Productive steps durably saved by wall time `t` (k checkpoints save
  /// k*F steps, capped at T).
  int saved_by(double t) const { return std::min(checkpoints_by(t) * f_, t_); }

  /// Productive steps actually executed by wall time `t` (saved progress
  /// plus work in the current, not-yet-checkpointed cycle). Used by the
  /// replay simulator.
  double progress_by(double t) const {
    if (t <= 0.0) return 0.0;
    if (t >= wall_duration()) return static_cast<double>(t_);
    const double cycle = static_cast<double>(f_) + o_;
    const int k = checkpoints_by(t);
    const double into_cycle = t - k * cycle;
    // Within a cycle, the first F steps are productive, the rest is the dump.
    const double productive =
        static_cast<double>(k) * f_ + std::min(into_cycle, static_cast<double>(f_));
    return std::min(productive, static_cast<double>(t_));
  }

  /// The paper's Ratio(t, F) (Formula 7): fraction of the application that
  /// must be redone on on-demand instances if this group dies at wall time
  /// `t`, including the recovery overhead R; 0 when the group completed
  /// (t >= wall_duration()). Clamped to [0, 1].
  double ratio_at(double t) const {
    if (t >= wall_duration()) return 0.0;  // completed: nothing left to redo
    return ratio_after(checkpoints_by(t));
  }

  /// Calls fn(begin, end, ratio) for runs of integer wall steps [begin, end)
  /// that partition [0, n) in ascending order. Ratio is constant over each
  /// run and `ratio` == ratio_at(t) bit for bit at every step t of it.
  /// A run ends where checkpoints_by moves, or where the run completes.
  ///
  /// Each boundary is found with checkpoints_by's own expression, never by
  /// multiplying the cycle length: a step's checkpoint count is monotone in
  /// the step, so the first step whose count differs from its run's ends
  /// the run. Runs are about one cycle long, so starting the probe one
  /// floor(cycle) past the run's first step costs one or two evaluations per
  /// checkpoint instead of one per step.
  template <typename Fn>
  void for_each_ratio_run(std::size_t n, Fn&& fn) const {
    // Integer steps t >= wall are exactly those t >= ceil(wall).
    const auto done = static_cast<std::size_t>(std::ceil(wall_duration()));
    const int last = checkpoints_full_run();
    const auto stride = static_cast<std::size_t>(std::floor(static_cast<double>(f_) + o_));
    std::size_t begin = 0;
    int k = 0;  // checkpoints_by(begin)
    while (begin < std::min(n, done)) {
      std::size_t end = done;
      int next = k;
      if (k < last) {
        end = begin + std::min(stride, done - begin);
        while (end - 1 > begin && checkpoints_by(static_cast<double>(end - 1)) != k) --end;
        while (end < done && (next = checkpoints_by(static_cast<double>(end))) == k) ++end;
      }
      fn(begin, std::min(end, n), ratio_after(k));
      begin = end;
      k = next;
    }
    if (begin < n) fn(begin, n, 0.0);  // completed
  }

  /// Worst-case completion time, in hours, of this group killed at its most
  /// damaging integer step and redone on a tier that takes `redo_h` hours
  /// for the whole app: max(W·step_h, max over t < ceil(W) of
  /// t·step_h + Ratio(t)·redo_h). Within a ratio run the candidate grows
  /// with t, so each run's maximum sits at its last step: O(checkpoints),
  /// and equal to the per-step maximum bit for bit.
  double worst_completion_h(double step_h, double redo_h) const {
    const double w = wall_duration();
    double worst = w * step_h;  // clean completion
    for_each_ratio_run(static_cast<std::size_t>(std::ceil(w)),
                       [&](std::size_t, std::size_t end, double ratio) {
                         worst = std::max(worst, static_cast<double>(end - 1) * step_h +
                                                     ratio * redo_h);
                       });
    return worst;
  }

 private:
  /// Ratio once k checkpoints are complete and the run is not.
  double ratio_after(int k) const {
    const int saved = std::min(k * f_, t_);
    const double remaining = static_cast<double>(t_ - saved) + (saved > 0 ? r_ : 0.0);
    return std::clamp(remaining / static_cast<double>(t_), 0.0, 1.0);
  }

  int t_;
  int f_;
  double o_;
  double r_;
};

}  // namespace sompi
