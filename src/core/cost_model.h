// The expected-cost / expected-time model (paper §3.2, Formulas 1–11).
//
// The paper evaluates E[Cost] and E[Time] by summing over the joint failure-
// time vector, which is O(prod T_i). Because group failures are independent
// (§3.1.2) and every term is either additive per group (spot cost), a max
// (spot time, Formula 10) or a min (recovery ratio, Formulas 6/11), the same
// expectations factor into per-group survival curves and can be computed in
// O(K × horizon) — we implement that decomposition, and keep the literal
// joint enumeration as a test oracle (evaluate_joint_exact).
//
// The model operates on a *subset view*: a vector of pointers into the
// optimizer's candidate-group table, so the k-of-K subset search never
// copies failure-model tables.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"
#include "core/problem.h"

namespace sompi {

/// One evaluation of the model at a decision vector.
struct Expectation {
  double cost_usd = 0.0;        ///< E[Cost] (Formula 2)
  double time_h = 0.0;          ///< E[Time] (Formula 8)
  double spot_cost_usd = 0.0;   ///< E[Cost^s] (Formula 5)
  double od_cost_usd = 0.0;     ///< E[Cost^od] (Formula 6/16)
  double spot_time_h = 0.0;     ///< E[Time^s] (Formula 10)
  double od_time_h = 0.0;       ///< E[Time^od] (Formula 11/17)
  double p_complete_on_spot = 0.0;  ///< P[some circle group finishes]
  double e_min_ratio = 0.0;     ///< E[min_i Ratio(t_i, F_i)]
};

class CostModel {
 public:
  struct Config {
    /// Length of one model step, hours (the trace step).
    double step_hours = 0.25;
    /// Resolution of the min-Ratio integration grid.
    std::size_t ratio_bins = 200;
  };

  /// The group pointers are borrowed; the pointees must outlive the model.
  /// Every group's failure-model horizon must cover its longest possible
  /// wall duration.
  CostModel(std::vector<const GroupSetup*> groups, const OnDemandChoice& od, Config config);

  std::size_t group_count() const { return groups_.size(); }
  const GroupSetup& group(std::size_t i) const { return *groups_.at(i); }
  const OnDemandChoice& od() const { return od_; }
  const Config& config() const { return config_; }

  /// Evaluates E[Cost], E[Time] and components for one decision per group
  /// (decisions.size() must equal the group count). O(K × horizon).
  /// Reuses internal scratch buffers: not thread-safe.
  Expectation evaluate(const std::vector<GroupDecision>& decisions) const;

  /// Literal sum over the joint failure-time grid (Formula 2/8). Exponential
  /// in the group count — use only as a test oracle on small instances.
  Expectation evaluate_joint_exact(const std::vector<GroupDecision>& decisions) const;

 private:
  std::vector<const GroupSetup*> groups_;
  OnDemandChoice od_;
  Config config_;
  // Scratch buffers reused across evaluate() calls (single-threaded use).
  mutable std::vector<double> min_ratio_ccdf_;
  mutable std::vector<double> ratio_bucket_;
  mutable std::vector<double> max_life_cdf_;
  mutable std::vector<double> walls_;
};

// ---------------------------------------------------------------------------
// Optimizer fast path (DESIGN.md "Optimizer fast path").
//
// CostModel::evaluate rebuilds every per-group lifetime CDF and Ratio-tail
// vector from scratch on each decision vector — O(k·(wall + ratio_bins))
// redundant work per tuple, the dominant cost of the Level-2 bid-tuple
// enumeration. Because the checkpoint interval is tied to the bid
// (F_i = φ_i(P_i), §4.2.2), every tuple-independent term depends only on the
// (group, bid) pair: CostTables hoists them all into SoA tables built once
// per optimizer run, and SubsetEvaluator folds the precomputed vectors with
// per-prefix cached state so a tuple whose digits changed from index c
// onward costs O((k−c)·(wall + ratio_bins)) — O(wall + ratio_bins) for the
// common last-digit step — instead of a full rebuild.
//
// Bit-identity contract: SubsetEvaluator::evaluate performs exactly the same
// floating-point operations, in exactly the same order, as
// CostModel::evaluate at the same decisions (the factor vectors are
// precomputed but each was produced by the identical expression, and the
// prefix cache only memoizes the left-to-right fold the naive code performs
// anyway). Differential tests assert 0-ULP agreement on every Expectation
// field (tests/test_cost_model_fast.cpp).
// ---------------------------------------------------------------------------

/// One enumerable choice of a group: a bid level plus its tied checkpoint
/// interval plus the checkpoint-level policy's exact O/R multipliers. The
/// degenerate choice (scales 1.0, policy 0) is the pre-multilevel (bid, F)
/// pair — CostTables built from it are bit-identical to the bid-only tables.
struct ChoiceSpec {
  std::size_t bid_index = 0;
  int f_steps = 1;
  double o_scale = 1.0;
  double r_scale = 1.0;
  std::size_t policy_index = 0;
};

/// The immutable per-group block of precomputed (choice → kernel) tables:
/// every value depends only on (group setup, that group's choice list, od,
/// config), never on the other groups or the deadline, so a block built for
/// one solve can be reused bit-identically by any later solve whose group
/// inputs are unchanged — the unit the FailureModelCache shares across
/// scopes, deadlines and shards. It also holds the deadline guard's
/// deadline-free facts (DESIGN.md §6b), so a solve only compares them with
/// its deadline. Non-copyable and held by shared_ptr: cell pointers into the
/// pools stay valid for the block's lifetime and the block is safe to share
/// across solver threads.
class GroupCostTable {
 public:
  struct Cell {
    double wall = 0.0;                 ///< W(F) in fractional steps
    std::size_t w_ceil = 0;            ///< ceil(W)
    int f_steps = 1;                   ///< the tied interval φ(P)
    bool survives = true;              ///< P[group survives its wall] >= 0.5
    double spot_term = 0.0;            ///< S·M·E[min(fp, W)]·h (Formula 5)
    double one_minus_complete = 1.0;   ///< 1 − P[group finishes on spot]
    const double* life = nullptr;      ///< lifetime factors, w_ceil entries
    const double* tail = nullptr;      ///< Ratio tails, ratio_bins entries
    ChoiceSpec choice;                 ///< the decoded decision of this cell
  };

  /// `choices` enumerates the group's (bid, F, policy) choices in
  /// enumeration order.
  GroupCostTable(const GroupSetup& group, const OnDemandChoice& od,
                 CostModel::Config config, const std::vector<ChoiceSpec>& choices);
  GroupCostTable(const GroupCostTable&) = delete;
  GroupCostTable& operator=(const GroupCostTable&) = delete;

  std::size_t choice_count() const { return cells_.size(); }
  const Cell& cell(std::size_t c) const { return cells_[c]; }
  double min_spot_term() const { return min_spot_term_; }
  const double* min_ratio_tail() const { return min_tail_.data(); }
  std::size_t max_w_ceil() const { return max_w_ceil_; }
  std::size_t ratio_bins() const { return ratio_bins_; }
  /// Worst-case completion hours of policy p's schedule at interval F, for
  /// every F in [1, T] (φ clamps to that range): the max over kill instants
  /// t of t + Ratio(t)·T_od, the deadline guard's input.
  double worst_h(std::size_t p, int f_steps) const {
    SOMPI_ASSERT(p < policy_count_ && f_steps >= 1 && f_steps <= t_steps_);
    return worst_h_[p * static_cast<std::size_t>(t_steps_) + static_cast<std::size_t>(f_steps) - 1];
  }
  /// Whether choice c's group survives its wall with probability >= 0.5.
  bool survives(std::size_t c) const { return cells_[c].survives; }
  /// Resident size of the block, for the cache's byte-cap accounting.
  std::size_t bytes() const {
    return sizeof(GroupCostTable) + cells_.size() * sizeof(Cell) +
           (life_pool_.size() + tail_pool_.size() + min_tail_.size() + worst_h_.size()) *
               sizeof(double);
  }

 private:
  std::size_t ratio_bins_ = 0;
  int t_steps_ = 0;
  std::size_t policy_count_ = 0;
  std::vector<double> worst_h_;  ///< policy-major, F − 1 within a policy
  std::vector<Cell> cells_;
  std::vector<double> life_pool_;
  std::vector<double> tail_pool_;
  double min_spot_term_ = 0.0;
  std::vector<double> min_tail_;
  std::size_t max_w_ceil_ = 0;
};

/// Per-(group, choice) precomputed kernels over a candidate-group list,
/// where a choice is a (bid, tied interval, level policy) triple — the
/// bid-only construction is the degenerate single-policy case. Composes one
/// GroupCostTable block per group, each freshly built or shared through the
/// FailureModelCache. Groups are borrowed; the pointees must outlive the
/// tables. Read-only after construction.
class CostTables {
 public:
  using Cell = GroupCostTable::Cell;

  /// Composes pre-built per-group blocks (one per group, each built from its
  /// group's (setup, choices, od, config) inputs) without recomputing
  /// anything — blocks carry no cross-group state, so a reused block is
  /// bit-identical to a fresh one.
  CostTables(const std::vector<GroupSetup>& groups, const OnDemandChoice& od,
             CostModel::Config config,
             std::vector<std::shared_ptr<const GroupCostTable>> blocks);

  std::size_t group_count() const { return groups_->size(); }
  /// Enumerable choices of group g (== bid count in the degenerate case).
  std::size_t choice_count(std::size_t g) const { return blocks_[g]->choice_count(); }
  std::size_t bid_count(std::size_t g) const;
  const GroupSetup& group(std::size_t g) const { return (*groups_)[g]; }
  const OnDemandChoice& od() const { return od_; }
  const CostModel::Config& config() const { return config_; }

  const Cell& cell(std::size_t g, std::size_t b) const {
    return blocks_[g]->cell(b);
  }
  /// P[lifetime ≤ t+1] factors for t in [0, w_ceil) — the multiplicands of
  /// the cross-group max-lifetime CDF product (Formula 10).
  const double* life_factors(const Cell& c) const { return c.life; }
  /// P[Ratio > r_j] per integration bin — the multiplicands of the
  /// min-Ratio complementary-CDF product (Formulas 6/7/11).
  const double* ratio_tail(const Cell& c) const { return c.tail; }

  /// min over the group's bids of spot_term — the admissible per-group
  /// spot-cost marginal used by the branch-and-bound lower bounds.
  double min_spot_term(std::size_t g) const { return blocks_[g]->min_spot_term(); }
  /// Per-bin min over the group's bids of ratio_tail — lower-bounds the
  /// group's factor in the min-Ratio product for any bid choice.
  const double* min_ratio_tail(std::size_t g) const {
    return blocks_[g]->min_ratio_tail();
  }
  /// max over the group's bids of w_ceil (sizes the common lifetime grid).
  std::size_t max_w_ceil(std::size_t g) const { return blocks_[g]->max_w_ceil(); }

  /// Group g's block, shareable through the FailureModelCache (and with
  /// future solves).
  const std::shared_ptr<const GroupCostTable>& block(std::size_t g) const {
    return blocks_[g];
  }

 private:
  const std::vector<GroupSetup>* groups_;
  OnDemandChoice od_;
  CostModel::Config config_;
  std::vector<std::shared_ptr<const GroupCostTable>> blocks_;
};

/// Incremental evaluator for one k-of-K subset: caches the left-to-right
/// fold state after every group position so that re-evaluating a tuple whose
/// digits changed only from index c re-runs the fold from level c, not from
/// scratch — bit-identical to CostModel::evaluate by construction (see the
/// contract above). Not thread-safe; one instance per solve, reset() to each
/// subset in turn.
class SubsetEvaluator {
 public:
  /// `members` indexes into the tables' candidate list, in subset order.
  SubsetEvaluator(const CostTables& tables, const std::vector<std::size_t>& members);

  /// Re-targets the evaluator at another subset of the same tables, as if
  /// freshly constructed, reusing its buffers. Only fold level 0 is filled:
  /// evaluate() writes every level above it before reading it.
  void reset(const std::vector<std::size_t>& members);

  std::size_t size() const { return members_.size(); }

  /// Declares that digits at positions >= level changed since the last
  /// evaluate() call; cached fold levels above it are invalidated.
  void note_change(std::size_t level) { valid_ = std::min(valid_, level); }

  /// Evaluates the tuple (bid per member, interval tied via the tables'
  /// f_of). Resumes the fold at the lowest invalidated level. The returned
  /// reference is into internal scratch, valid until the next call.
  const Expectation& evaluate(const std::vector<std::size_t>& bids);

  /// Rigorous lower bound on evaluate(b').cost_usd for ANY tuple b' agreeing
  /// with `bids` on positions [0, level]: the exact spot-term prefix folded
  /// with each remaining group's min spot term (in group order), plus the
  /// subset's on-demand floor. Because every term is non-negative, term-wise
  /// ≤ the real terms, and IEEE rounding is monotone, the bound never
  /// exceeds the cost evaluate() actually computes — pruning on it can only
  /// discard provably-worse tuples (admissibility proof sketch in DESIGN.md
  /// "Optimizer fast path"). O(k) scalar work.
  double cost_lower_bound(const std::vector<std::size_t>& bids, std::size_t level) const;

  /// Rigorous lower bound on the cost of every tuple of this subset: min
  /// spot terms plus the irreducible on-demand floor (min-Ratio tails folded
  /// from the per-group bid minima). Computed once per reset().
  double subset_cost_bound() const { return subset_bound_; }

 private:
  const CostTables* tables_;
  std::vector<std::size_t> members_;
  std::size_t grid_len_ = 0;   ///< common lifetime-grid length
  std::size_t valid_ = 0;      ///< fold levels [0, valid_] are current
  // Level-indexed fold state: level i holds the accumulators after folding
  // members [0, i). Vectors are flattened (level-major).
  std::vector<double> life_state_;   ///< (k+1) × grid_len_
  std::vector<double> ratio_state_;  ///< (k+1) × ratio_bins
  std::vector<double> spot_sum_;     ///< (k+1)
  std::vector<double> all_fail_;     ///< (k+1)
  std::vector<double> ccdf_lb_;      ///< reset()'s min-tail fold, ratio_bins
  double od_floor_ = 0.0;      ///< on-demand floor from per-group min tails
  double subset_bound_ = 0.0;
  Expectation scratch_;
};

}  // namespace sompi
