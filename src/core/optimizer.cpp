#include "core/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "common/combinatorics.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/schedule.h"

namespace sompi {

namespace {

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
  h = splitmix64(s);
}

void hash_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  hash_mix(h, bits);
}

void hash_string(std::uint64_t& h, const std::string& s) {
  hash_mix(h, s.size());
  for (const char c : s) hash_mix(h, static_cast<unsigned char>(c));
}

}  // namespace

std::uint64_t replan_config_hash(const OptimizerConfig& config, const AppProfile& app,
                                 const OnDemandChoice& od, double deadline_h) {
  std::uint64_t h = 0x7AB1E5EEDULL;
  hash_double(h, deadline_h);
  // The app profile: T_i/O_i/R_i derive from it through the estimator. A
  // store must only be shared across solvers with the same catalog and
  // estimator — those are identities, not values, so they are the caller's
  // contract rather than part of the hash.
  hash_string(h, app.name);
  hash_mix(h, static_cast<std::uint64_t>(app.category));
  hash_mix(h, static_cast<std::uint64_t>(app.processes));
  hash_double(h, app.instr_gi);
  hash_double(h, app.comm_gb);
  hash_double(h, app.msgs_per_rank);
  hash_double(h, app.io_seq_gb);
  hash_double(h, app.io_rand_gb);
  hash_double(h, app.state_gb);
  // The on-demand tier: φ and the guard tables see it.
  hash_mix(h, od.type_index);
  hash_double(h, od.t_h);
  hash_mix(h, static_cast<std::uint64_t>(od.instances));
  hash_double(h, od.rate_usd_h);
  hash_mix(h, od.feasible ? 1 : 0);
  hash_double(h, config.slack);
  // Problem-construction knobs (the bid grid and the failure estimator).
  hash_double(h, config.setup.step_hours);
  hash_mix(h, static_cast<std::uint64_t>(config.setup.bid_grid));
  hash_mix(h, config.setup.log_levels);
  hash_mix(h, config.setup.uniform_points);
  hash_double(h, config.setup.max_bid_over_ondemand);
  hash_mix(h, config.setup.failure.samples);
  hash_mix(h, config.setup.failure.horizon_steps);
  hash_mix(h, config.setup.failure.seed);
  hash_mix(h, config.setup.failure.wrap ? 1 : 0);
  // Search knobs that shape artifact content.
  hash_mix(h, config.ratio_bins);
  hash_mix(h, static_cast<std::uint64_t>(config.phi_mode));
  hash_mix(h, config.worst_case_guard ? 1 : 0);
  // The EFFECTIVE policy list: an empty config means the degenerate {s3}.
  std::vector<CkptPolicy> policies = config.ckpt_policies;
  if (policies.empty()) policies.push_back(CkptPolicy{});
  hash_mix(h, policies.size());
  for (const CkptPolicy& pol : policies) {
    hash_string(h, pol.name);
    hash_double(h, pol.o_scale);
    hash_double(h, pol.r_scale);
  }
  return h;
}

namespace {

/// The call's replan_config_hash on the warm path; 0 (never read) when cold.
std::uint64_t warm_config_hash(const ReplanContext* ctx, const OptimizerConfig& config,
                               const AppProfile& app, const OnDemandChoice& od,
                               double deadline_h) {
  return ctx != nullptr && ctx->usable() ? replan_config_hash(config, app, od, deadline_h) : 0;
}

}  // namespace

SompiOptimizer::SompiOptimizer(const Catalog* catalog, const ExecTimeEstimator* estimator,
                               OptimizerConfig config)
    : catalog_(catalog), estimator_(estimator), config_(std::move(config)) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
  SOMPI_REQUIRE(config_.max_groups >= 1);
  SOMPI_REQUIRE(config_.max_candidates >= 1);
}

Plan SompiOptimizer::optimize(const AppProfile& app, const Market& history, double deadline_h,
                              ReplanContext* ctx,
                              const std::vector<std::string>& allowed_types,
                              const std::vector<std::string>& allowed_zones) const {
  const auto t_begin = std::chrono::steady_clock::now();
  SOMPI_REQUIRE(deadline_h > 0.0);
  const auto allowed = [](const std::vector<std::string>& names, const std::string& name) {
    return names.empty() || std::find(names.begin(), names.end(), name) != names.end();
  };
  // The on-demand tier first: it depends only on (app, deadline, slack,
  // allowed types), and the warm setup lookup hashes it.
  const OnDemandSelector od_selector(catalog_, estimator_);
  const OnDemandChoice od = od_selector.select(app, deadline_h, config_.slack, allowed_types);

  // The candidate groups: every allowed (type, zone) whose productive
  // runtime fits the deadline, in catalog order, each built through the warm
  // store. Filtering before building is what lets a constrained scope skip
  // disallowed groups' Monte-Carlo.
  const auto t_setup = std::chrono::steady_clock::now();
  const std::uint64_t chash = warm_config_hash(ctx, config_, app, od, deadline_h);
  std::vector<GroupSetup> candidates;
  FailureModelTally models;
  for (const CircleGroupSpec& spec : catalog_->all_groups()) {
    const InstanceType& type = catalog_->type(spec.type_index);
    const std::string& zone = catalog_->zone(spec.zone_index).name;
    if (!allowed(allowed_types, type.name) || !allowed(allowed_zones, zone)) continue;
    if (estimator_->hours(app, type, zone) > deadline_h) continue;  // cannot finish in time
    candidates.push_back(setup_with(app, spec, history, chash, ctx, &models));
  }
  const auto t_search = std::chrono::steady_clock::now();

  Plan plan = optimize_with(app, std::move(candidates), od, deadline_h, ctx, chash);
  plan.stats.failure_models_built = models.built;
  plan.stats.price_steps_read = models.price_steps_read;
  plan.setup_seconds = std::chrono::duration<double>(t_search - t_setup).count();
  plan.optimize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin).count();
  return plan;
}

GroupSetup SompiOptimizer::setup_for(const AppProfile& app, const CircleGroupSpec& spec,
                                     const Market& history, const OnDemandChoice& od,
                                     double deadline_h, ReplanContext* ctx,
                                     FailureModelTally* tally) const {
  const std::uint64_t chash = warm_config_hash(ctx, config_, app, od, deadline_h);
  return setup_with(app, spec, history, chash, ctx, tally);
}

GroupSetup SompiOptimizer::setup_with(const AppProfile& app, const CircleGroupSpec& spec,
                                      const Market& history, std::uint64_t chash,
                                      ReplanContext* ctx, FailureModelTally* tally) const {
  const SetupBuilder builder(catalog_, estimator_);
  if (ctx == nullptr || !ctx->usable())
    return builder.build(app, spec, history, config_.setup, nullptr, tally);
  const std::size_t zones = catalog_->zones().size();
  const std::uint64_t version = ctx->versions->at(spec.type_index * zones + spec.zone_index);
  if (const auto art = ctx->store->lookup(ctx->scope, spec, version, chash)) return art->setup;

  GroupSetup setup =
      builder.build(app, spec, history, config_.setup, &ctx->store->models(), tally);
  // Store a setup-only artifact immediately: even if this group is pruned
  // from the search below max_candidates, the next epoch skips its
  // Monte-Carlo failure estimation, the bulk of per-group setup.
  ctx->store->store(ctx->scope, spec, chash, std::make_shared<GroupArtifact>(version, setup));
  return setup;
}

Plan SompiOptimizer::optimize_over(const AppProfile& app, std::vector<GroupSetup> candidates,
                                   const OnDemandChoice& od, double deadline_h,
                                   ReplanContext* ctx) const {
  const std::uint64_t chash = warm_config_hash(ctx, config_, app, od, deadline_h);
  return optimize_with(app, std::move(candidates), od, deadline_h, ctx, chash);
}

Plan SompiOptimizer::optimize_with(const AppProfile& app, std::vector<GroupSetup> candidates,
                                   const OnDemandChoice& od, double deadline_h,
                                   ReplanContext* ctx, std::uint64_t chash) const {
  const auto t_begin = std::chrono::steady_clock::now();

  Plan plan;
  plan.app = app.name;
  plan.step_hours = config_.setup.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = od;

  // Prune the candidate pool: keep the groups with the lowest expected
  // full-run spot cost (expected price at the top bid × instances × T_i).
  if (candidates.size() > config_.max_candidates) {
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    auto score = [&](std::size_t i) {
      const auto& g = candidates[i];
      const std::size_t top = g.failure.bid_count() - 1;
      return g.failure.expected_price(top) * g.instances * g.t_steps;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return score(a) < score(b); });
    std::vector<GroupSetup> kept;
    kept.reserve(config_.max_candidates);
    for (std::size_t i = 0; i < config_.max_candidates; ++i)
      kept.push_back(std::move(candidates[order[i]]));
    candidates = std::move(kept);
  }

  // Checkpoint-level policies (DESIGN.md §11). An empty config list is the
  // degenerate single-policy set {s3}. Each group's composite choice index is
  //   c = p · bid_count(g) + b,
  // so with one policy c == b: enumeration order, tuple radices, colex ranks
  // and logical evaluation counts all coincide with the pre-multilevel scan.
  std::vector<CkptPolicy> policies = config_.ckpt_policies;
  if (policies.empty()) policies.push_back(CkptPolicy{});
  const std::size_t n_pol = policies.size();
  const auto choice_count = [&](std::size_t g) {
    return n_pol * candidates[g].failure.bid_count();
  };
  const auto decode = [&](std::size_t g, std::size_t c,
                          const std::vector<std::vector<int>>& f_of) {
    const std::size_t bids = candidates[g].failure.bid_count();
    const std::size_t p = c / bids;
    return GroupDecision{c % bids, f_of[g][c], policies[p].o_scale,
                         policies[p].r_scale, p};
  };

  // Warm start (DESIGN.md §14): resolve each kept candidate's cached
  // artifact. A hit whose shape matches the current composite choice space
  // lets every derived table below — φ intervals, guard tables and the
  // GroupCostTable block — be reused bit-identically instead of recomputed;
  // everything else is computed as on the cold path and stored back for the
  // next epoch.
  const bool warm = ctx != nullptr && ctx->usable();
  const std::size_t zone_count = catalog_->zones().size();
  const auto version_of = [&](const CircleGroupSpec& spec) {
    return ctx->versions->at(spec.type_index * zone_count + spec.zone_index);
  };
  std::vector<std::shared_ptr<const GroupArtifact>> arts(candidates.size());
  if (warm)
    for (std::size_t g = 0; g < candidates.size(); ++g)
      arts[g] = ctx->store->lookup(ctx->scope, candidates[g].spec,
                                   version_of(candidates[g].spec), chash);
  const auto derived_ok = [&](std::size_t g) {
    const auto& a = arts[g];
    return a != nullptr && a->has_derived() && a->f_of.size() == choice_count(g) &&
           a->f_guard_max.size() == n_pol && a->fits.size() == choice_count(g) &&
           a->surv_ok.size() == choice_count(g);
  };

  // Dimension reduction: F_i = φ_i(P_i), precomputed per composite
  // (group, policy, bid) choice — φ sees the policy's effective O/R.
  CheckpointPlanner::Config phi_cfg;
  phi_cfg.mode = config_.phi_mode;
  phi_cfg.step_hours = config_.setup.step_hours;
  phi_cfg.ratio_bins = config_.ratio_bins;
  const CheckpointPlanner phi(phi_cfg);
  std::vector<std::vector<int>> f_of(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (warm && derived_ok(i)) {
      f_of[i] = arts[i]->f_of;
      continue;
    }
    const std::size_t bids = candidates[i].failure.bid_count();
    f_of[i].resize(n_pol * bids);
    for (std::size_t c = 0; c < f_of[i].size(); ++c) {
      const CkptPolicy& pol = policies[c / bids];
      f_of[i][c] = phi.choose(candidates[i], c % bids, od, pol.o_scale, pol.r_scale);
    }
  }

  const CostModel::Config model_cfg{.step_hours = config_.setup.step_hours,
                                    .ratio_bins = config_.ratio_bins};
  const double step_h = config_.setup.step_hours;

  // Worst-case completion time of a group killed at its most damaging
  // instant, recovering from its last checkpoint on the on-demand tier:
  // max over t of (t + Ratio(t)·T_od). The max over all groups bounds the
  // joint worst case of any plan: if every group dies at time t_i,
  //   Time <= max_i t_i + T_od·min_i Ratio_i(t_i) <= max_i (t_i + T_od·Ratio_i(t_i)).
  const auto group_worst_h = [&](const GroupSetup& g, int f_steps, double o_scale,
                                 double r_scale) {
    const GroupSchedule sched(g.t_steps, f_steps, g.o_steps * o_scale,
                              g.r_steps * r_scale);
    const double w = sched.wall_duration();
    double worst = w * step_h;  // clean completion
    for (std::size_t t = 0; t < static_cast<std::size_t>(std::ceil(w)); ++t) {
      const double candidate =
          static_cast<double>(t) * step_h + sched.ratio_at(static_cast<double>(t)) * od.t_h;
      worst = std::max(worst, candidate);
    }
    return worst;
  };

  // Largest checkpoint interval whose worst case still fits the deadline —
  // the guard-clamped alternative tried for single-group plans. worst(F) is
  // monotone in F (fewer checkpoints → more redone work), so binary search.
  // The clamp depends on the policy's effective O/R, so it is per (group,
  // policy), indexed g·n_pol + p.
  std::vector<int> f_guard_max(candidates.size() * n_pol, 0);
  if (config_.worst_case_guard) {
    for (std::size_t idx = 0; idx < f_guard_max.size(); ++idx) {
      if (warm && derived_ok(idx / n_pol)) {
        f_guard_max[idx] = arts[idx / n_pol]->f_guard_max[idx % n_pol];
        continue;
      }
      const GroupSetup& g = candidates[idx / n_pol];
      const CkptPolicy& pol = policies[idx % n_pol];
      if (group_worst_h(g, 1, pol.o_scale, pol.r_scale) > deadline_h)
        continue;  // even F = 1 unsafe
      int lo = 1, hi = g.t_steps;
      while (lo < hi) {
        const int mid = lo + (hi - lo + 1) / 2;
        if (group_worst_h(g, mid, pol.o_scale, pol.r_scale) <= deadline_h) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      f_guard_max[idx] = lo;
    }
  }

  const std::size_t k_max =
      std::min<std::size_t>(config_.max_groups, candidates.size());
  // Never the empty subset: with no candidates there is nothing to search.
  const std::size_t k_min =
      config_.enumerate_smaller_subsets ? 1 : std::max<std::size_t>(k_max, 1);

  // The cheapest acceptable configuration found within one subset.
  struct SubsetBest {
    double cost = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> subset;
    std::vector<GroupDecision> decisions;
    Expectation expectation;
  };
  /// Logical evaluation count of the exhaustive scan — invariant under
  /// pruning and warm starts, feeds Plan::model_evaluations (fingerprint).
  std::size_t evaluations = 0;
  /// What the search actually did (Plan::stats; fingerprint-excluded).
  PlanStats stats;

  // Per-(group, composite-choice) guard tables, hoisted out of the tuple
  // loop instead of an O(wall) group_worst_h scan per tuple per group: both
  // the deadline-fit and the survival-vs-0.5 test depend only on the
  // (group, policy, bid) triple once F is tied to them.
  std::vector<std::size_t> choice_off(candidates.size() + 1, 0);
  for (std::size_t g = 0; g < candidates.size(); ++g)
    choice_off[g + 1] = choice_off[g] + choice_count(g);
  std::vector<unsigned char> fits(choice_off.back(), 1);
  std::vector<unsigned char> surv_ok(choice_off.back(), 1);
  if (config_.worst_case_guard) {
    for (std::size_t g = 0; g < candidates.size(); ++g) {
      if (warm && derived_ok(g)) {
        std::copy(arts[g]->fits.begin(), arts[g]->fits.end(), fits.begin() + choice_off[g]);
        std::copy(arts[g]->surv_ok.begin(), arts[g]->surv_ok.end(),
                  surv_ok.begin() + choice_off[g]);
        continue;
      }
      const GroupSetup& grp = candidates[g];
      const std::size_t bids = grp.failure.bid_count();
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        const CkptPolicy& pol = policies[c / bids];
        const GroupSchedule sched(grp.t_steps, f_of[g][c],
                                  grp.o_steps * pol.o_scale,
                                  grp.r_steps * pol.r_scale);
        fits[choice_off[g] + c] =
            group_worst_h(grp, f_of[g][c], pol.o_scale, pol.r_scale) <= deadline_h;
        surv_ok[choice_off[g] + c] =
            !(grp.failure.survival_at(c % bids, sched.wall_duration()) < 0.5);
      }
    }
  }

  // The guard filter, table-driven (the same predicates the exhaustive scan
  // computes per tuple) for the tuple `digits` over candidate `members`:
  // `branch` when some digit's worst case misses the deadline, `reject`
  // when, in addition, genuine replication cannot stand in — so the tuple
  // is not evaluated at all. A lone group never can: a short history window
  // can miss rare spikes entirely and report survival 1.0.
  struct Guard {
    bool branch = false;
    bool reject = false;
  };
  const auto guard = [&](const std::vector<std::size_t>& members,
                         const std::vector<std::size_t>& digits) {
    Guard gd;
    if (!config_.worst_case_guard) return gd;
    for (std::size_t i = 0; i < members.size() && !gd.branch; ++i)
      gd.branch = !fits[choice_off[members[i]] + digits[i]];
    if (!gd.branch) return gd;
    gd.reject = members.size() < 2;
    for (std::size_t i = 0; i < members.size() && !gd.reject; ++i)
      gd.reject = !surv_ok[choice_off[members[i]] + digits[i]];
    return gd;
  };

  // Exhaustive-scan evaluation count for one subset, in closed form. The
  // exhaustive scan evaluates (a) every all-fit tuple, (b) for k >= 2,
  // every tuple with some unfit digit whose groups all pass the survival
  // test, and (c) for k == 1, the guard-clamped second shot per bid where
  // the clamp is active. With the guard off, every tuple is evaluated.
  const auto logical_evaluations = [&](const std::vector<std::size_t>& subset) {
    if (!config_.worst_case_guard) {
      std::size_t n = 1;
      for (std::size_t g : subset) n *= choice_count(g);
      return n;
    }
    std::size_t n_fit = 1, n_surv = 1, n_surv_fit = 1;
    for (std::size_t g : subset) {
      std::size_t fit = 0, surv = 0, both = 0;
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        fit += fits[choice_off[g] + c];
        surv += surv_ok[choice_off[g] + c];
        both += fits[choice_off[g] + c] & surv_ok[choice_off[g] + c];
      }
      n_fit *= fit;
      n_surv *= surv;
      n_surv_fit *= both;
    }
    std::size_t n = n_fit;
    if (subset.size() >= 2) n += n_surv - n_surv_fit;
    if (subset.size() == 1 && config_.phi_mode != PhiMode::kDisabled) {
      const std::size_t g = subset[0];
      const std::size_t bids = candidates[g].failure.bid_count();
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        const int clamp = f_guard_max[g * n_pol + c / bids];
        n += clamp >= 1 && clamp < f_of[g][c];
      }
    }
    return n;
  };

  // --- The search (DESIGN.md "Optimizer fast path"). ---
  // Per-(group, bid) kernels precomputed once over the full candidate list;
  // per-subset searches walk a lex-order odometer with per-prefix cached
  // fold state and cut subtrees whose admissible cost bound exceeds the
  // cross-subset incumbent. Plans are bit-identical to the exhaustive scan
  // (the oracle in tests/support/reference_search.h).
  std::optional<CostTables> tables;
  if (!candidates.empty()) {
    // Per-group table blocks: a warm artifact's block is adopted as-is (it
    // is a pure function of inputs the version + config hash pin), the rest
    // are built exactly as on the cold path.
    std::vector<std::shared_ptr<const GroupCostTable>> blocks(candidates.size());
    for (std::size_t g = 0; g < candidates.size(); ++g) {
      if (warm && derived_ok(g)) {
        blocks[g] = arts[g]->table;
        ++stats.tables_reused;
        continue;
      }
      const std::size_t bids = candidates[g].failure.bid_count();
      std::vector<ChoiceSpec> choices(choice_count(g));
      for (std::size_t c = 0; c < choices.size(); ++c) {
        const std::size_t p = c / bids;
        choices[c] = ChoiceSpec{c % bids, f_of[g][c], policies[p].o_scale,
                                policies[p].r_scale, p};
      }
      blocks[g] = std::make_shared<const GroupCostTable>(candidates[g], od, model_cfg, choices);
      ++stats.tables_built;
    }
    tables.emplace(candidates, od, model_cfg, std::move(blocks));
  }

  // Store back every artifact this solve had to (re)build, table block
  // included, so the next epoch's clean groups start fully warm.
  if (warm) {
    for (std::size_t g = 0; g < candidates.size(); ++g) {
      if (derived_ok(g)) continue;
      auto art = std::make_shared<GroupArtifact>(version_of(candidates[g].spec), candidates[g]);
      art->f_of = f_of[g];
      art->f_guard_max.assign(f_guard_max.begin() + static_cast<std::ptrdiff_t>(g * n_pol),
                              f_guard_max.begin() + static_cast<std::ptrdiff_t>((g + 1) * n_pol));
      art->fits.assign(fits.begin() + static_cast<std::ptrdiff_t>(choice_off[g]),
                       fits.begin() + static_cast<std::ptrdiff_t>(choice_off[g + 1]));
      art->surv_ok.assign(surv_ok.begin() + static_cast<std::ptrdiff_t>(choice_off[g]),
                          surv_ok.begin() + static_cast<std::ptrdiff_t>(choice_off[g + 1]));
      art->table = tables->block(g);
      ctx->store->store(ctx->scope, candidates[g].spec, chash, std::move(art));
    }
  }

  // Lowest accepted cost seen so far, in any subset. Any accepted
  // candidate's cost upper-bounds the final plan cost, so pruning strictly
  // above it is safe.
  double incumbent = std::numeric_limits<double>::infinity();

  // Incumbent seeding: re-cost the previous epoch's winning plan under the
  // CURRENT tables and, if it is still an acceptable tuple of the current
  // search space, start the incumbent there instead of at infinity. Safe by
  // admissibility: the true winner costs at most the seed (the seed tuple is
  // itself enumerated and acceptable), bounds never exceed true costs, and
  // pruning is strictly-above-incumbent — so the winner's subtree is never
  // cut and equal-cost ties resolve through the untouched acceptance logic.
  // Any mapping failure (group no longer a candidate, bid fell off the grid,
  // guard-clamped interval, policy set changed) just skips the seed.
  if (warm && ctx->incumbent != nullptr && ctx->incumbent->uses_spot()) {
    const Plan& prev = *ctx->incumbent;
    const std::size_t k = prev.groups.size();
    bool ok = k >= k_min && k <= k_max;
    std::vector<std::pair<std::size_t, std::size_t>> mapped;  // (candidate, choice)
    for (const GroupPlan& gp : prev.groups) {
      if (!ok) break;
      std::size_t ci = candidates.size();
      for (std::size_t i = 0; i < candidates.size(); ++i)
        if (candidates[i].spec.type_index == gp.spec.type_index &&
            candidates[i].spec.zone_index == gp.spec.zone_index) {
          ci = i;
          break;
        }
      if (ci == candidates.size()) {
        ok = false;
        break;
      }
      const GroupSetup& g = candidates[ci];
      std::size_t p = n_pol;
      for (std::size_t q = 0; q < n_pol; ++q)
        if (policies[q].name == gp.ckpt_policy) {
          p = q;
          break;
        }
      const std::size_t bids = g.failure.bid_count();
      std::size_t b = bids;
      for (std::size_t j = 0; j < bids; ++j)
        if (g.failure.bid(j) == gp.bid_usd) {
          b = j;
          break;
        }
      // Every field must match the tuple EXACTLY (bit-exact doubles): the
      // seed must be a tuple the search itself would evaluate from the
      // tables, or its cost could undercut every real tuple and prune the
      // true winner.
      if (p == n_pol || b == bids || g.instances != gp.instances ||
          g.t_steps != gp.t_steps || f_of[ci][p * bids + b] != gp.f_steps ||
          g.o_steps * policies[p].o_scale != gp.o_steps ||
          g.r_steps * policies[p].r_scale != gp.r_steps) {
        ok = false;
        break;
      }
      mapped.emplace_back(ci, p * bids + b);
    }
    if (ok) {
      std::sort(mapped.begin(), mapped.end());
      for (std::size_t i = 0; i + 1 < mapped.size(); ++i)
        if (mapped[i].first == mapped[i + 1].first) ok = false;
    }
    if (ok) {
      std::vector<std::size_t> members(k), digits(k);
      for (std::size_t i = 0; i < k; ++i) {
        members[i] = mapped[i].first;
        digits[i] = mapped[i].second;
      }
      // The seed must be a tuple the search would ACCEPT, not merely
      // evaluate.
      const Guard gd = guard(members, digits);
      if (!gd.reject) {
        SubsetEvaluator seed_ev(*tables, members);
        const Expectation& e = seed_ev.evaluate(digits);
        const bool miss = gd.branch && 1.0 - e.p_complete_on_spot > kMissTolerance;
        if (!miss && e.time_h <= deadline_h) {
          incumbent = e.cost_usd;
          stats.warm_seeds = 1;
        }
      }
    }
  }

  const auto eval_subset = [&](const std::vector<std::size_t>& subset) {
    const std::size_t k = subset.size();
    SubsetBest best;
    evaluations += logical_evaluations(subset);

    std::vector<std::size_t> radices;
    radices.reserve(k);
    std::size_t total_tuples = 1;
    for (std::size_t g : subset) {
      radices.push_back(choice_count(g));
      total_tuples *= radices.back();
    }

    // The exhaustive scan visits tuples digit-0-fastest (colex) and accepts
    // strict improvements only, so among equal-cost tuples it keeps the one
    // with the lowest colex rank. The odometer visits in lex order; breaking
    // cost ties by colex rank reproduces the scan's winner exactly
    // instead of relying on costs never tying.
    std::vector<std::uint64_t> colex_w(k);
    std::uint64_t w = 1;
    for (std::size_t i = 0; i < k; ++i) {
      colex_w[i] = w;
      w *= radices[i];
    }
    const auto colex_rank = [&](const std::vector<std::size_t>& bids) {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < k; ++i) r += colex_w[i] * bids[i];
      return r;
    };
    std::uint64_t best_rank = std::numeric_limits<std::uint64_t>::max();

    // Guard-clamped second shots exist only for single-group subsets and use
    // an interval outside the precomputed tables, where spot-term
    // monotonicity in F is not bitwise-guaranteed — so k == 1 subsets (only
    // O(bid_count) tuples) are searched unpruned.
    const bool prune = k >= 2;

    SubsetEvaluator ev(*tables, subset);
    if (prune && incumbent < std::numeric_limits<double>::infinity() &&
        ev.subset_cost_bound() > incumbent) {
      ++stats.subsets_pruned;
      stats.tuples_pruned += total_tuples;
      return best;
    }
    ++stats.subsets_searched;

    std::optional<CostModel> clamp_model;  // lazy; k == 1 second shots only
    std::vector<GroupDecision> decisions(k);
    const auto accept = [&](const Expectation& e, const std::vector<GroupDecision>& d,
                            std::uint64_t rank) {
      if (!(e.time_h <= deadline_h)) return;
      if (e.cost_usd < best.cost || (e.cost_usd == best.cost && rank < best_rank)) {
        best.cost = e.cost_usd;
        best_rank = rank;
        best.subset = subset;
        best.decisions = d;
        best.expectation = e;
        incumbent = std::min(incumbent, e.cost_usd);
      }
    };

    TupleOdometer odo(radices);
    std::size_t changed = 0;
    while (!odo.done()) {
      const std::vector<std::size_t>& bids = odo.digits();
      ev.note_change(changed);
      if (prune && incumbent < std::numeric_limits<double>::infinity()) {
        // After advance/skip the digits below `changed` are zero, so the
        // current tuple is the first of the subtree rooted at its prefix
        // [0, changed] — one cut abandons the whole subtree.
        if (changed + 1 < k && ev.cost_lower_bound(bids, changed) > incumbent) {
          ++stats.subtrees_pruned;
          stats.tuples_pruned += static_cast<std::size_t>(odo.subtree_size(changed));
          changed = odo.skip_from(changed);
          continue;
        }
        if (ev.cost_lower_bound(bids, k - 1) > incumbent) {
          ++stats.tuples_pruned;
          changed = odo.advance();
          continue;
        }
      }
      ++stats.tuples_visited;

      for (std::size_t i = 0; i < k; ++i)
        decisions[i] = decode(subset[i], bids[i], f_of);

      const Guard gd = guard(subset, bids);
      if (!gd.reject) {
        const Expectation& e = ev.evaluate(bids);
        ++stats.evaluations;
        const bool miss = gd.branch && 1.0 - e.p_complete_on_spot > kMissTolerance;
        if (!miss) accept(e, decisions, colex_rank(bids));
      }

      // Single-group second shot with the guard-clamped interval: denser
      // checkpoints buy worst-case deadline safety (not when checkpointing is
      // ablated away — the clamp would silently re-enable it). The clamped
      // interval is not in the tables, so it goes through the naive
      // evaluator (bit-identical by definition).
      if (config_.worst_case_guard && k == 1 && config_.phi_mode != PhiMode::kDisabled) {
        const int clamp = f_guard_max[subset[0] * n_pol + decisions[0].policy_index];
        if (clamp >= 1 && clamp < decisions[0].f_steps) {
          if (!clamp_model)
            clamp_model.emplace(
                std::vector<const GroupSetup*>{&candidates[subset[0]]}, od, model_cfg);
          std::vector<GroupDecision> clamped = decisions;
          clamped[0].f_steps = clamp;
          const Expectation e = clamp_model->evaluate(clamped);
          ++stats.evaluations;
          // worst(clamp) fits the deadline by the binary-search invariant,
          // so the scan takes the plain acceptance branch here too.
          accept(e, clamped, colex_rank(bids));
        }
      }

      changed = odo.advance();
    }
    return best;
  };

  // One in-order walk over the k-of-K subsets. Each subset search keeps
  // the exhaustive scan's winner within it; strict improvement across
  // subsets keeps the earliest subset on a cost tie, as the scan does.
  SubsetBest best;
  for (std::size_t k = k_min; k <= k_max; ++k)
    for_each_combination(candidates.size(), k, [&](const std::vector<std::size_t>& subset) {
      SubsetBest sb = eval_subset(subset);
      if (sb.cost < best.cost) best = std::move(sb);
    });

  plan.model_evaluations = evaluations;
  plan.stats = stats;
  plan.spot_feasible = best.cost < std::numeric_limits<double>::infinity();

  // Fall back to on-demand when no spot configuration fits the deadline or
  // when running on demand is outright cheaper than the best hybrid.
  if (!plan.spot_feasible || best.cost >= od.full_cost_usd()) {
    plan.groups.clear();
    plan.expected = Expectation{};
    plan.expected.cost_usd = plan.expected.od_cost_usd = od.full_cost_usd();
    plan.expected.time_h = plan.expected.od_time_h = od.t_h;
    plan.expected.e_min_ratio = 1.0;
  } else {
    for (std::size_t i = 0; i < best.subset.size(); ++i) {
      const GroupSetup& g = candidates[best.subset[i]];
      const GroupDecision& d = best.decisions[i];
      plan.groups.push_back(GroupPlan{
          .spec = g.spec,
          .name = catalog_->group_name(g.spec),
          .instances = g.instances,
          .t_steps = g.t_steps,
          .o_steps = g.o_steps * d.o_scale,
          .r_steps = g.r_steps * d.r_scale,
          .bid_usd = g.failure.bid(d.bid_index),
          .f_steps = d.f_steps,
          .ckpt_policy = policies[d.policy_index].name,
      });
    }
    plan.expected = best.expectation;
  }

  plan.optimize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin).count();
  log_debug("optimize ", app.name, ": ", evaluations, " logical evaluations (",
            plan.stats.evaluations, " performed, ", plan.stats.tuples_pruned,
            " tuples pruned, ", plan.stats.subtrees_pruned, " subtree cuts, ",
            plan.stats.subsets_pruned, " subsets pruned) in ", plan.optimize_seconds,
            "s, expected $", plan.expected.cost_usd);
  return plan;
}

}  // namespace sompi
