#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/error.h"
#include "core/schedule.h"

namespace sompi {

CostModel::CostModel(std::vector<const GroupSetup*> groups, const OnDemandChoice& od,
                     Config config)
    : groups_(std::move(groups)), od_(od), config_(config) {
  SOMPI_REQUIRE(!groups_.empty());
  for (const auto* g : groups_) SOMPI_REQUIRE(g != nullptr);
  SOMPI_REQUIRE(config_.step_hours > 0.0);
  SOMPI_REQUIRE(config_.ratio_bins >= 8);
  SOMPI_REQUIRE(od_.t_h > 0.0 && od_.rate_usd_h > 0.0);
}

Expectation CostModel::evaluate(const std::vector<GroupDecision>& decisions) const {
  SOMPI_REQUIRE(decisions.size() == groups_.size());
  const std::size_t k = groups_.size();
  const std::size_t bins = config_.ratio_bins;

  Expectation e;

  // min-Ratio integration grid: P[min_i Ratio_i > r] at bin midpoints
  // r_j = (j + 0.5) / bins, accumulated multiplicatively across groups.
  min_ratio_ccdf_.assign(bins, 1.0);

  // Wall durations first, to size the common lifetime grid (Formula 10).
  walls_.resize(k);
  std::size_t max_wall = 0;
  // The decision's level-policy scales multiply O_i/R_i; the degenerate
  // scales are exactly 1.0 and IEEE multiplication by 1.0 is exact, so the
  // pre-multilevel decisions take a bit-identical path through here.
  for (std::size_t i = 0; i < k; ++i) {
    const auto& g = *groups_[i];
    const GroupSchedule sched(g.t_steps, decisions[i].f_steps,
                              g.o_steps * decisions[i].o_scale,
                              g.r_steps * decisions[i].r_scale);
    walls_[i] = sched.wall_duration();
    SOMPI_REQUIRE_MSG(walls_[i] <= static_cast<double>(g.failure.horizon()),
                      "failure-model horizon too short for group wall duration");
    max_wall = std::max(max_wall, static_cast<std::size_t>(std::ceil(walls_[i])));
  }
  // P[max lifetime <= t] accumulates as a product over groups.
  max_life_cdf_.assign(max_wall, 1.0);

  double p_all_fail = 1.0;

  for (std::size_t i = 0; i < k; ++i) {
    const auto& g = *groups_[i];
    const auto& d = decisions[i];
    const GroupSchedule sched(g.t_steps, d.f_steps, g.o_steps * d.o_scale,
                              g.r_steps * d.r_scale);
    const double w = walls_[i];
    const auto b = d.bid_index;

    // --- Spot cost (Formula 5): S_i × M_i × E[lifetime]. ---
    const double s_price = g.failure.expected_price(b);
    const double e_life = g.failure.expected_lifetime(b, w);
    e.spot_cost_usd += s_price * g.instances * e_life * config_.step_hours;

    const double p_complete = g.failure.survival_at(b, w);
    p_all_fail *= (1.0 - p_complete);

    // --- Lifetime CDF on the common grid (Formula 10 via product). ---
    // lifetime = min(first-passage, w); P[lifetime <= t] for integer t is
    // 1 - P[fp >= t+1] below w and 1 at or above w.
    const auto w_ceil = static_cast<std::size_t>(std::ceil(w));
    for (std::size_t t = 0; t < std::min(w_ceil, max_wall); ++t)
      max_life_cdf_[t] *= 1.0 - g.failure.survival(b, t + 1);

    // --- Ratio complementary CDF (Formulas 6/7/11 via product). ---
    // Failure at step t is an atom of pmf(t) at ratio_at(t). An atom at v
    // raises P[Ratio > r] for midpoints r_j < v, i.e. bins j < v·bins − 0.5;
    // bucket the atom at its top bin and suffix-sum once.
    ratio_bucket_.assign(bins, 0.0);
    for (std::size_t t = 0; t < w_ceil; ++t) {
      const double p = g.failure.pmf(b, t);
      if (p <= 0.0) continue;
      const double v = sched.ratio_at(static_cast<double>(t));
      const auto j_top = static_cast<std::ptrdiff_t>(
          std::ceil(v * static_cast<double>(bins) - 0.5));
      if (j_top >= 1)
        ratio_bucket_[static_cast<std::size_t>(
            std::min<std::ptrdiff_t>(j_top, static_cast<std::ptrdiff_t>(bins)) - 1)] += p;
    }
    double suffix = 0.0;
    for (std::size_t j = bins; j-- > 0;) {
      suffix += ratio_bucket_[j];
      min_ratio_ccdf_[j] *= suffix;
    }
  }

  // E[max lifetime] = Σ_t (1 − P[max <= t]); exact for integer lifetimes,
  // a ≤ 1-step overestimate for the fractional completion atom at W_i.
  double e_max_life = 0.0;
  for (std::size_t t = 0; t < max_wall; ++t) e_max_life += 1.0 - max_life_cdf_[t];
  e.spot_time_h = e_max_life * config_.step_hours;

  // E[min Ratio] = ∫ P[min > r] dr over [0, 1], midpoint rule.
  double e_min_ratio = 0.0;
  for (std::size_t j = 0; j < bins; ++j) e_min_ratio += min_ratio_ccdf_[j];
  e_min_ratio /= static_cast<double>(bins);

  e.e_min_ratio = e_min_ratio;
  e.p_complete_on_spot = 1.0 - p_all_fail;
  e.od_cost_usd = od_.rate_usd_h * od_.t_h * e_min_ratio;   // Formula 16
  e.od_time_h = od_.t_h * e_min_ratio;                      // Formula 17
  e.cost_usd = e.spot_cost_usd + e.od_cost_usd;             // Formula 4
  e.time_h = e.spot_time_h + e.od_time_h;                   // Formula 9
  return e;
}

Expectation CostModel::evaluate_joint_exact(const std::vector<GroupDecision>& decisions) const {
  SOMPI_REQUIRE(decisions.size() == groups_.size());
  const std::size_t k = groups_.size();

  std::vector<GroupSchedule> scheds;
  std::vector<std::size_t> outcomes(k);  // wall_ceil failure slots + completion
  scheds.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& g = *groups_[i];
    scheds.emplace_back(g.t_steps, decisions[i].f_steps, g.o_steps * decisions[i].o_scale,
                        g.r_steps * decisions[i].r_scale);
    outcomes[i] = static_cast<std::size_t>(std::ceil(scheds[i].wall_duration())) + 1;
  }

  Expectation e;
  std::vector<std::size_t> t(k, 0);  // outcome index per group; last = completion
  double p_all_fail_acc = 0.0;
  for (;;) {
    double p = 1.0;
    double max_life = 0.0;
    double min_ratio = 1.0;
    bool any_complete = false;
    double spot_cost = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& g = *groups_[i];
      const auto b = decisions[i].bid_index;
      const double w = scheds[i].wall_duration();
      const bool complete = (t[i] + 1 == outcomes[i]);
      double life;
      double ratio;
      if (complete) {
        p *= g.failure.survival_at(b, w);
        life = w;
        ratio = 0.0;
        any_complete = true;
      } else {
        p *= g.failure.pmf(b, t[i]);
        life = static_cast<double>(t[i]);
        ratio = scheds[i].ratio_at(life);
      }
      spot_cost += g.failure.expected_price(b) * g.instances * life * config_.step_hours;
      max_life = std::max(max_life, life);
      min_ratio = std::min(min_ratio, ratio);
    }
    if (p > 0.0) {
      e.spot_cost_usd += p * spot_cost;
      e.spot_time_h += p * max_life * config_.step_hours;
      e.od_cost_usd += p * od_.rate_usd_h * od_.t_h * min_ratio;
      e.od_time_h += p * od_.t_h * min_ratio;
      e.e_min_ratio += p * min_ratio;
      if (!any_complete) p_all_fail_acc += p;
    }

    // Advance the mixed-radix counter over joint outcomes.
    std::size_t i = 0;
    while (i < k && ++t[i] == outcomes[i]) t[i++] = 0;
    if (i == k) break;
  }

  e.p_complete_on_spot = 1.0 - p_all_fail_acc;
  e.cost_usd = e.spot_cost_usd + e.od_cost_usd;
  e.time_h = e.spot_time_h + e.od_time_h;
  return e;
}

// ---------------------------------------------------------------------------
// CostTables: every expression below is copied verbatim from
// CostModel::evaluate so the precomputed factors carry the exact bits the
// naive evaluator would produce in place.
// ---------------------------------------------------------------------------

GroupCostTable::GroupCostTable(const GroupSetup& grp, const OnDemandChoice& od,
                               CostModel::Config config,
                               const std::vector<ChoiceSpec>& choices)
    : ratio_bins_(config.ratio_bins) {
  SOMPI_REQUIRE(!choices.empty());
  SOMPI_REQUIRE(config.step_hours > 0.0);
  SOMPI_REQUIRE(config.ratio_bins >= 8);
  SOMPI_REQUIRE(od.t_h > 0.0 && od.rate_usd_h > 0.0);

  const std::size_t bins = config.ratio_bins;
  min_tail_.assign(bins, std::numeric_limits<double>::infinity());
  cells_.resize(choices.size());
  // Pool offsets are recorded locally and resolved to pointers only after
  // both pools stop growing, so every Cell::life/tail stays valid.
  std::vector<std::size_t> life_off(choices.size());
  std::vector<std::size_t> tail_off(choices.size());

  std::vector<double> bucket(bins);
  double min_spot = std::numeric_limits<double>::infinity();
  for (std::size_t ci = 0; ci < choices.size(); ++ci) {
    Cell& c = cells_[ci];
    c.choice = choices[ci];
    const std::size_t b = c.choice.bid_index;
    SOMPI_REQUIRE(b < grp.failure.bid_count());
    c.f_steps = c.choice.f_steps;
    const GroupSchedule sched(grp.t_steps, c.f_steps, grp.o_steps * c.choice.o_scale,
                              grp.r_steps * c.choice.r_scale);
    const double w = sched.wall_duration();
    SOMPI_REQUIRE_MSG(w <= static_cast<double>(grp.failure.horizon()),
                      "failure-model horizon too short for group wall duration");
    c.wall = w;
    c.w_ceil = static_cast<std::size_t>(std::ceil(w));
    max_w_ceil_ = std::max(max_w_ceil_, c.w_ceil);

    const double s_price = grp.failure.expected_price(b);
    const double e_life = grp.failure.expected_lifetime(b, w);
    c.spot_term = s_price * grp.instances * e_life * config.step_hours;
    min_spot = std::min(min_spot, c.spot_term);

    c.one_minus_complete = 1.0 - grp.failure.survival_at(b, w);

    life_off[ci] = life_pool_.size();
    for (std::size_t t = 0; t < c.w_ceil; ++t)
      life_pool_.push_back(1.0 - grp.failure.survival(b, t + 1));

    std::fill(bucket.begin(), bucket.end(), 0.0);
    for (std::size_t t = 0; t < c.w_ceil; ++t) {
      const double p = grp.failure.pmf(b, t);
      if (p <= 0.0) continue;
      const double v = sched.ratio_at(static_cast<double>(t));
      const auto j_top = static_cast<std::ptrdiff_t>(
          std::ceil(v * static_cast<double>(bins) - 0.5));
      if (j_top >= 1)
        bucket[static_cast<std::size_t>(
            std::min<std::ptrdiff_t>(j_top, static_cast<std::ptrdiff_t>(bins)) - 1)] += p;
    }
    tail_off[ci] = tail_pool_.size();
    tail_pool_.resize(tail_off[ci] + bins);
    double suffix = 0.0;
    for (std::size_t j = bins; j-- > 0;) {
      suffix += bucket[j];
      tail_pool_[tail_off[ci] + j] = suffix;
    }
    for (std::size_t j = 0; j < bins; ++j)
      min_tail_[j] = std::min(min_tail_[j], tail_pool_[tail_off[ci] + j]);
  }
  min_spot_term_ = min_spot;

  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    cells_[ci].life = life_pool_.data() + life_off[ci];
    cells_[ci].tail = tail_pool_.data() + tail_off[ci];
  }
}

CostTables::CostTables(const std::vector<GroupSetup>& groups, const OnDemandChoice& od,
                       CostModel::Config config,
                       std::vector<std::shared_ptr<const GroupCostTable>> blocks)
    : groups_(&groups), od_(od), config_(config), blocks_(std::move(blocks)) {
  SOMPI_REQUIRE(!groups.empty());
  SOMPI_REQUIRE(blocks_.size() == groups.size());
  SOMPI_REQUIRE(config_.step_hours > 0.0);
  SOMPI_REQUIRE(config_.ratio_bins >= 8);
  SOMPI_REQUIRE(od_.t_h > 0.0 && od_.rate_usd_h > 0.0);
  for (const auto& blk : blocks_) {
    SOMPI_REQUIRE(blk != nullptr);
    SOMPI_REQUIRE(blk->ratio_bins() == config_.ratio_bins);
  }
}

std::size_t CostTables::bid_count(std::size_t g) const {
  return (*groups_)[g].failure.bid_count();
}

SubsetEvaluator::SubsetEvaluator(const CostTables& tables, std::vector<std::size_t> members)
    : tables_(&tables), members_(std::move(members)) {
  SOMPI_REQUIRE(!members_.empty());
  const std::size_t k = members_.size();
  const std::size_t bins = tables.config().ratio_bins;
  for (std::size_t g : members_) {
    SOMPI_REQUIRE(g < tables.group_count());
    grid_len_ = std::max(grid_len_, tables.max_w_ceil(g));
  }
  // Level 0 holds the fold identities; the naive evaluator starts from the
  // same values (all-ones CDF/CCDF grids, zero spot cost, unit all-fail).
  life_state_.assign((k + 1) * grid_len_, 1.0);
  ratio_state_.assign((k + 1) * bins, 1.0);
  spot_sum_.assign(k + 1, 0.0);
  all_fail_.assign(k + 1, 1.0);

  // Subset-level admissible bound: min spot terms folded in group order,
  // plus the on-demand floor from the per-bin min tails — the same
  // association order evaluate() uses, so rounding monotonicity applies.
  double spot_lb = 0.0;
  for (std::size_t g : members_) spot_lb += tables.min_spot_term(g);
  std::vector<double> ccdf_lb(bins, 1.0);
  for (std::size_t g : members_) {
    const double* mt = tables.min_ratio_tail(g);
    for (std::size_t j = 0; j < bins; ++j) ccdf_lb[j] *= mt[j];
  }
  double ratio_lb = 0.0;
  for (std::size_t j = 0; j < bins; ++j) ratio_lb += ccdf_lb[j];
  ratio_lb /= static_cast<double>(bins);
  od_floor_ = tables.od().rate_usd_h * tables.od().t_h * ratio_lb;
  subset_bound_ = spot_lb + od_floor_;
}

const Expectation& SubsetEvaluator::evaluate(const std::vector<std::size_t>& bids) {
  const std::size_t k = members_.size();
  SOMPI_REQUIRE(bids.size() == k);
  const std::size_t bins = tables_->config().ratio_bins;

  for (std::size_t i = valid_; i < k; ++i) {
    const CostTables::Cell& c = tables_->cell(members_[i], bids[i]);
    // Lifetime CDF product on the common grid. Entries at or beyond this
    // tuple's max wall stay exactly 1.0 and contribute an exact +0.0 to the
    // expectation sum below, so the wider grid cannot perturb any bit.
    const double* in_life = life_state_.data() + i * grid_len_;
    double* out_life = life_state_.data() + (i + 1) * grid_len_;
    const double* lf = tables_->life_factors(c);
    std::size_t t = 0;
    for (; t < c.w_ceil; ++t) out_life[t] = in_life[t] * lf[t];
    for (; t < grid_len_; ++t) out_life[t] = in_life[t];

    const double* in_r = ratio_state_.data() + i * bins;
    double* out_r = ratio_state_.data() + (i + 1) * bins;
    const double* tail = tables_->ratio_tail(c);
    for (std::size_t j = 0; j < bins; ++j) out_r[j] = in_r[j] * tail[j];

    spot_sum_[i + 1] = spot_sum_[i] + c.spot_term;
    all_fail_[i + 1] = all_fail_[i] * c.one_minus_complete;
  }
  valid_ = k;

  Expectation e;
  const double* life = life_state_.data() + k * grid_len_;
  double e_max_life = 0.0;
  for (std::size_t t = 0; t < grid_len_; ++t) e_max_life += 1.0 - life[t];
  e.spot_time_h = e_max_life * tables_->config().step_hours;

  const double* ccdf = ratio_state_.data() + k * bins;
  double e_min_ratio = 0.0;
  for (std::size_t j = 0; j < bins; ++j) e_min_ratio += ccdf[j];
  e_min_ratio /= static_cast<double>(bins);

  const OnDemandChoice& od = tables_->od();
  e.e_min_ratio = e_min_ratio;
  e.spot_cost_usd = spot_sum_[k];
  e.p_complete_on_spot = 1.0 - all_fail_[k];
  e.od_cost_usd = od.rate_usd_h * od.t_h * e_min_ratio;
  e.od_time_h = od.t_h * e_min_ratio;
  e.cost_usd = e.spot_cost_usd + e.od_cost_usd;
  e.time_h = e.spot_time_h + e.od_time_h;
  scratch_ = e;
  return scratch_;
}

double SubsetEvaluator::cost_lower_bound(const std::vector<std::size_t>& bids,
                                         std::size_t level) const {
  double s = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i)
    s += i <= level ? tables_->cell(members_[i], bids[i]).spot_term
                    : tables_->min_spot_term(members_[i]);
  return s + od_floor_;
}

}  // namespace sompi
