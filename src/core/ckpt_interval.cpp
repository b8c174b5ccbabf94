#include "core/ckpt_interval.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "core/schedule.h"

namespace sompi {

namespace {

// Young/Daly from the bid's MTBF, so φ reads the MTBF once per bid.
int young_daly_at(const GroupSetup& group, double mtbf, double o_scale) {
  const double o = group.o_steps * o_scale;
  if (o <= 0.0) return 1;  // free checkpoints: checkpoint every step
  const double f = std::sqrt(2.0 * o * mtbf);
  return std::clamp(static_cast<int>(std::lround(f)), 1, group.t_steps);
}

}  // namespace

int CheckpointPlanner::young_daly(const GroupSetup& group, std::size_t bid_index,
                                  double o_scale) {
  return young_daly_at(group, group.failure.mtbf(bid_index), o_scale);
}

std::vector<int> CheckpointPlanner::candidate_intervals(int t_steps, int young) const {
  SOMPI_REQUIRE(t_steps >= 1);
  std::vector<int> grid;
  grid.push_back(1);
  // Geometric sweep 1..T; the objective is smooth enough between knots.
  const double ratio = std::pow(static_cast<double>(t_steps),
                                1.0 / static_cast<double>(std::max<std::size_t>(config_.grid_points, 2)));
  double x = 1.0;
  while (grid.back() < t_steps) {
    x *= ratio;
    const int next = std::max(grid.back() + 1, static_cast<int>(std::lround(x)));
    grid.push_back(std::min(next, t_steps));
  }
  grid.push_back(std::clamp(young, 1, t_steps));
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

double CheckpointPlanner::objective(const GroupSetup& group, std::size_t bid_index, int f_steps,
                                    const OnDemandChoice& od, double o_scale,
                                    double r_scale) const {
  const GroupSchedule sched(group.t_steps, f_steps, group.o_steps * o_scale,
                            group.r_steps * r_scale);
  const double w = sched.wall_duration();
  const auto& fm = group.failure;

  const double spot_cost = fm.expected_price(bid_index) * group.instances *
                           fm.expected_lifetime(bid_index, w) * config_.step_hours;

  // E[Ratio] for this group alone (completion contributes ratio 0). Clamp
  // to the estimation horizon: survival beyond it counts as completion,
  // matching expected_lifetime's censoring.
  double e_ratio = 0.0;
  const auto w_ceil = std::min(static_cast<std::size_t>(std::ceil(w)), fm.horizon());
  for (std::size_t t = 0; t < w_ceil; ++t) {
    const double p = fm.pmf(bid_index, t);
    if (p > 0.0) e_ratio += p * sched.ratio_at(static_cast<double>(t));
  }
  return spot_cost + od.rate_usd_h * od.t_h * e_ratio;
}

int CheckpointPlanner::choose(const GroupSetup& group, std::size_t bid_index,
                              const OnDemandChoice& od, double o_scale,
                              double r_scale) const {
  return choose(group, bid_index, od, {CkptPolicy{"", o_scale, r_scale}}).front();
}

std::vector<int> CheckpointPlanner::choose(const GroupSetup& group, std::size_t bid_index,
                                           const OnDemandChoice& od,
                                           const std::vector<CkptPolicy>& policies) const {
  std::vector<int> best_f(policies.size(), group.t_steps);
  if (config_.mode == PhiMode::kDisabled) return best_f;
  const auto& fm = group.failure;
  const double mtbf = fm.mtbf(bid_index);
  if (config_.mode == PhiMode::kYoungDaly) {
    for (std::size_t p = 0; p < policies.size(); ++p)
      best_f[p] = young_daly_at(group, mtbf, policies[p].o_scale);
    return best_f;
  }

  // The bid's row, read once. F = 1 has the longest wall (the most
  // checkpoints), so its ceiling bounds every step any interval reads.
  const std::size_t b = bid_index;
  double longest = 0.0;
  for (const CkptPolicy& pol : policies)
    longest = std::max(longest, GroupSchedule(group.t_steps, 1, group.o_steps * pol.o_scale,
                                              group.r_steps * pol.r_scale)
                                    .wall_duration());
  const std::size_t n = std::min(static_cast<std::size_t>(std::ceil(longest)), fm.horizon());
  std::vector<double> pmf(n);
  for (std::size_t t = 0; t < n; ++t) pmf[t] = fm.pmf(b, t);
  // lifetime[k] = Σ_{t=1..k} survival(t), in expected_lifetime's order.
  std::vector<double> lifetime(n + 1, 0.0);
  for (std::size_t t = 1; t <= n; ++t) lifetime[t] = lifetime[t - 1] + fm.survival(b, t);

  const std::vector<int> geometric = candidate_intervals(group.t_steps, 1);
  std::vector<int> grid;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const CkptPolicy& pol = policies[p];
    // candidate_intervals(T, young): the geometric grid (which holds 1)
    // with the Young/Daly point merged in.
    const int young = young_daly_at(group, mtbf, pol.o_scale);
    grid = geometric;
    const auto at = std::lower_bound(grid.begin(), grid.end(), young);
    if (*at != young) grid.insert(at, young);

    double best_j = std::numeric_limits<double>::infinity();
    for (int f : grid) {
      // objective(group, b, f, od, pol.o_scale, pol.r_scale), term for term.
      const GroupSchedule sched(group.t_steps, f, group.o_steps * pol.o_scale,
                                group.r_steps * pol.r_scale);
      const double w = sched.wall_duration();
      // expected_lifetime(b, w) from the running sums.
      const double capped = std::min(w, static_cast<double>(fm.horizon()));
      const auto whole = static_cast<std::size_t>(std::floor(capped));
      double e_life = lifetime[whole];
      const double frac = capped - static_cast<double>(whole);
      if (frac > 0.0) e_life += frac * fm.survival(b, whole + 1);
      const double spot_cost =
          fm.expected_price(b) * group.instances * e_life * config_.step_hours;

      // E[Ratio] per ratio run; the pmf is never negative, so the atoms the
      // oracle skips (p == 0) add an exact +0.0 here.
      double e_ratio = 0.0;
      sched.for_each_ratio_run(
          std::min(static_cast<std::size_t>(std::ceil(w)), fm.horizon()),
          [&](std::size_t begin, std::size_t end, double ratio) {
            for (std::size_t t = begin; t < end; ++t) e_ratio += pmf[t] * ratio;
          });
      const double j = spot_cost + od.rate_usd_h * od.t_h * e_ratio;
      if (j < best_j) {
        best_j = j;
        best_f[p] = f;
      }
    }
  }
  return best_f;
}

}  // namespace sompi
