// SOMPI's two-level optimizer (paper §4).
//
// Level 0 (decoupled): pick the on-demand recovery tier d* (§4.1).
// Level 1 (dimension reduction): tie each group's checkpoint interval to its
//   bid, F_i = φ_i(P_i) (§4.2.2, Theorem 1), so the search runs over bids only.
// Level 2 (logarithmic search): enumerate bid tuples over the logarithmic
//   grid for every k-of-K circle-group subset (§4.2.2, §4.4) and keep the
//   cheapest configuration whose expected time meets the deadline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ckpt_interval.h"
#include "core/cost_table_store.h"
#include "core/ondemand.h"
#include "core/plan.h"
#include "core/setup_builder.h"

namespace sompi {

/// Acceptable all-replicas-fail probability for a plan whose worst case
/// misses the deadline (OptimizerConfig::worst_case_guard, alternative (b)).
inline constexpr double kMissTolerance = 0.05;

struct OptimizerConfig {
  /// Fraction of the deadline reserved for checkpoint/recovery when picking
  /// the on-demand tier (paper default 20%, §5.2).
  double slack = 0.20;
  /// The paper's k: circle groups running in parallel (default 4, §5.2).
  int max_groups = 4;
  /// Also consider subsets smaller than max_groups (fewer replicas can be
  /// cheaper when the market is calm).
  bool enumerate_smaller_subsets = true;
  /// Candidate circle groups kept after pruning by expected full-run spot
  /// cost; bounds the C(K, k) enumeration.
  std::size_t max_candidates = 8;
  /// Problem-construction knobs (step size, bid grid, failure estimation).
  SetupConfig setup;
  /// min-Ratio integration resolution.
  std::size_t ratio_bins = 200;
  /// φ mode (numeric by default; Young/Daly for the ablation).
  PhiMode phi_mode = PhiMode::kNumeric;
  /// Deadline guard beyond E[Time] <= Deadline. A plan passes when either
  ///   (a) its joint worst case fits: even if every group is killed at its
  ///       most damaging instant, time <= max_i max_t (t + Ratio_i(t)·T_od)
  ///       stays within the deadline — dense checkpoints achieve this; or
  ///   (b) the model's P[every replica fails] <= kMissTolerance —
  ///       replication achieves this.
  /// This is what makes checkpointing and replication adaptively necessary
  /// rather than optional (paper §1, §5.4.2).
  bool worst_case_guard = true;
  /// Checkpoint-level policies enumerated per group as a third decision
  /// dimension next to bid and interval (DESIGN.md §11). Empty means the
  /// degenerate single-policy set {CkptPolicy::single_s3()}, whose plans are
  /// bit-identical to the pre-multilevel optimizer; listing several policies
  /// can only lower the optimum, since the search is exact over the
  /// enlarged choice set (the fuzzer's dominance gate).
  std::vector<CkptPolicy> ckpt_policies = {};
};

/// Warm-start context for one optimize() call (DESIGN.md §14). The store is
/// borrowed for the duration of the call. With a null context (or a context
/// missing its store or versions) the optimizer runs the cold path exactly;
/// with a usable one it reuses cached per-group artifacts whose history
/// version still matches, takes the failure models of the groups it rebuilds
/// from the store's FailureModelCache, and seeds the branch-and-bound
/// incumbent with the previous plan. The chosen plan is bit-identical either
/// way — warm starts change only the work accounting (PlanStats), never the
/// plan.
struct ReplanContext {
  CostTableStore* store = nullptr;
  /// Artifact namespace — typically the canonical request key: it pins app,
  /// deadline and constraints, so one scope shares one config hash.
  std::string scope;
  /// Per-group history versions of the market snapshot being solved, indexed
  /// by catalog ordinal (MarketBoard::group_versions()).
  std::shared_ptr<const std::vector<std::uint64_t>> versions;
  /// Previous winning plan for this scope; seeds the incumbent bound. Any
  /// seed that maps onto the current search space is admissible — the true
  /// winner costs no more than an acceptable tuple's table-exact cost, and
  /// pruning is strictly-above — so a stale or unmappable seed degrades to
  /// a cold search, never to a wrong plan.
  std::shared_ptr<const Plan> incumbent;

  bool usable() const { return store != nullptr && versions != nullptr; }
};

/// Hash of every optimizer/app/od/deadline input that can change a cached
/// per-group artifact's CONTENT. Deliberately excludes knobs that are
/// bit-neutral for artifacts — max_groups / max_candidates /
/// enumerate_smaller_subsets select which artifacts are used, not what they
/// hold, and worst_case_guard only decides whether a solve reads the guard
/// facts every block holds — so artifacts survive across solver variants
/// that share the same problem. False mismatches only cost a rebuild; false
/// matches are impossible for inputs the hash covers.
std::uint64_t replan_config_hash(const OptimizerConfig& config, const AppProfile& app,
                                 const OnDemandChoice& od, double deadline_h);

class SompiOptimizer {
 public:
  SompiOptimizer(const Catalog* catalog, const ExecTimeEstimator* estimator,
                 OptimizerConfig config);

  const OptimizerConfig& config() const { return config_; }

  /// Produces the cost-minimizing plan for `app` under `deadline_h`, using
  /// `history` as the spot-price history (the model's only market input).
  /// With a usable `ctx` it reuses the context's cached artifacts for groups
  /// whose history version matches and stores back what it builds; nullptr
  /// (or an unusable context) is the cold path. Non-empty `allowed_types` /
  /// `allowed_zones` (catalog names) restrict the on-demand tier to the
  /// allowed types (zones are a spot-market concept) and the candidate
  /// groups to allowed (type, zone) pairs; empty means all.
  Plan optimize(const AppProfile& app, const Market& history, double deadline_h,
                ReplanContext* ctx = nullptr,
                const std::vector<std::string>& allowed_types = {},
                const std::vector<std::string>& allowed_zones = {}) const;

  /// Like optimize(), but over a fixed candidate-group list (used by the
  /// adaptive engine for residual work and by ablation baselines).
  Plan optimize_over(const AppProfile& app, std::vector<GroupSetup> candidates,
                     const OnDemandChoice& od, double deadline_h,
                     ReplanContext* ctx = nullptr) const;

  /// The per-group unit of optimize()'s candidate loop with warm setup
  /// reuse: returns the cached GroupSetup when `ctx` holds an artifact for
  /// `spec` at its current history version (skipping the Monte-Carlo failure
  /// estimation), otherwise builds one — its failure model from the store's
  /// model cache — and stores a setup-only artifact so even groups later
  /// pruned from the search never rebuild it. The models this call builds
  /// add to `*tally` (when non-null).
  GroupSetup setup_for(const AppProfile& app, const CircleGroupSpec& spec,
                       const Market& history, const OnDemandChoice& od, double deadline_h,
                       ReplanContext* ctx, FailureModelTally* tally = nullptr) const;

 private:
  /// The two halves of setup_for(), with the call's replan_config_hash
  /// already computed (0 on the cold path): the artifact `ctx` holds for
  /// `spec` at its current history version, if any...
  std::shared_ptr<const GroupArtifact> stored_setup(const CircleGroupSpec& spec,
                                                    std::uint64_t config_hash,
                                                    ReplanContext* ctx) const;
  /// ...and the setup built without it, stored as a setup-only artifact.
  /// Unless `wait`, returns nothing when the group's failure model is being
  /// built for another caller (FailureModelCache::try_get).
  std::optional<GroupSetup> build_setup(const AppProfile& app, const CircleGroupSpec& spec,
                                        const Market& history, std::uint64_t config_hash,
                                        ReplanContext* ctx, FailureModelTally* tally,
                                        bool wait) const;
  Plan optimize_with(const AppProfile& app, std::vector<GroupSetup> candidates,
                     const OnDemandChoice& od, double deadline_h, ReplanContext* ctx,
                     std::uint64_t config_hash) const;

  const Catalog* catalog_;
  const ExecTimeEstimator* estimator_;
  OptimizerConfig config_;
};

}  // namespace sompi
