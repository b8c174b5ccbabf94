#include "fixture.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/ondemand.h"
#include "harness.h"
#include "profile/paper_profiles.h"

namespace perfbench {

using namespace sompi;

World::World(double days)
    : market(generate_market(catalog, paper_market_profile(catalog), days,
                             /*step_hours=*/0.25, kMarketSeed)) {}

std::vector<AppProfile> evaluation_apps() {
  std::vector<AppProfile> apps = paper_profiles();  // BT SP LU FT IS BTIO
  apps.push_back(lammps_profile(32));
  apps.push_back(lammps_profile(128));
  return apps;
}

double baseline_cost(const World& world, const AppProfile& app) {
  return OnDemandSelector(&world.catalog, &world.estimator).baseline(app).full_cost_usd();
}

double baseline_hours(const World& world, const AppProfile& app) {
  return OnDemandSelector(&world.catalog, &world.estimator).baseline(app).t_h;
}

OptimizerConfig serving_optimizer() {
  OptimizerConfig c;
  c.max_candidates = 4;
  c.max_groups = 2;
  c.setup.log_levels = 3;
  c.setup.failure.samples = 400;
  c.ratio_bins = 32;
  return c;
}

ShardedConfig tier_config(const OptimizerConfig& opt) {
  ShardedConfig c;
  c.shards = 4;
  c.vnodes = 64;
  c.salt = 0x5EED5EEDULL;
  c.service.cache = {.shards = 4, .capacity = 1024};
  c.service.max_concurrent_solves = 2;
  c.service.max_queued_solves = 1024;
  // Bounded so a run's memory plateaus: never-seen keys' artifacts are
  // never reused and age out of the scope LRU.
  c.service.table_store.max_bytes = 4u << 20;
  c.service.opt = opt;
  return c;
}

std::vector<PlanRequest> request_universe(const World& world) {
  struct Constraint {
    std::vector<std::string> types;
    std::vector<std::string> zones;
  };
  const std::vector<Constraint> constraints = {
      {{}, {}},
      {{"c3.xlarge", "cc2.8xlarge"}, {}},
      {{"m1.small", "m1.medium", "m1.large"}, {}},
      {{}, {"us-east-1a"}},
      {{}, {"us-east-1c", "us-east-1b"}},
      {{"m1.large", "c3.xlarge"}, {"us-east-1a", "us-east-1c"}},
      {{"cc2.8xlarge"}, {"us-east-1b"}},
      {{"m1.medium", "c3.xlarge", "cc2.8xlarge"}, {}},
  };
  const std::vector<double> factors = {1.2, 1.5, 2.0, 3.0};
  std::vector<PlanRequest> out;
  for (const AppProfile& app : evaluation_apps()) {
    const double base_h = baseline_hours(world, app);
    for (const double f : factors) {
      for (const Constraint& c : constraints) {
        PlanRequest r;
        r.app = app;
        r.deadline_h = base_h * f;
        r.allowed_types = c.types;
        r.allowed_zones = c.zones;
        out.push_back(canonicalized(std::move(r)));
      }
    }
  }
  std::mt19937_64 rng(0x0DE5);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(acc);
  }
  for (double& v : cdf_) v /= acc;
}

std::size_t Zipf::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

DecomposedSolve decomposed_solve(const World& world, const SompiOptimizer& optimizer,
                                 const PlanRequest& canon, const Market& market,
                                 ReplanContext* ctx) {
  const Catalog& catalog = world.catalog;
  const auto allowed = [](const std::vector<std::string>& names, const std::string& name) {
    return names.empty() || std::binary_search(names.begin(), names.end(), name);
  };
  const OnDemandSelector selector(&catalog, &world.estimator);
  const double slack = optimizer.config().slack;

  // On-demand tier: the unconstrained selector, or its restriction to the
  // allowed types (PlanService's constrained-scope rule).
  OnDemandChoice od;
  if (canon.allowed_types.empty() && canon.allowed_zones.empty()) {
    od = selector.select(canon.app, canon.deadline_h, slack);
  } else {
    const double budget_h = canon.deadline_h * (1.0 - slack);
    OnDemandChoice fastest;
    double best_cost = std::numeric_limits<double>::infinity();
    double fastest_t = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < catalog.types().size(); ++d) {
      if (!allowed(canon.allowed_types, catalog.type(d).name)) continue;
      OnDemandChoice c = selector.describe(d, canon.app);
      if (c.t_h < fastest_t) {
        fastest_t = c.t_h;
        fastest = c;
      }
      if (c.t_h > budget_h) continue;
      c.feasible = true;
      if (c.full_cost_usd() < best_cost) {
        best_cost = c.full_cost_usd();
        od = c;
      }
    }
    if (!od.feasible) od = fastest;
  }

  DecomposedSolve out;
  std::vector<GroupSetup> candidates;
  const auto t_setup = Clock::now();
  std::optional<ScopedSpan> span(std::in_place, "core.setup");
  for (const CircleGroupSpec& spec : catalog.all_groups()) {
    if (!allowed(canon.allowed_types, catalog.type(spec.type_index).name) ||
        !allowed(canon.allowed_zones, catalog.zone(spec.zone_index).name))
      continue;
    const double t_h = world.estimator.hours(canon.app, catalog.type(spec.type_index),
                                             catalog.zone(spec.zone_index).name);
    if (t_h > canon.deadline_h) continue;
    candidates.push_back(
        optimizer.setup_for(canon.app, spec, market, od, canon.deadline_h, ctx));
  }
  out.setup_s = seconds_since(t_setup);

  span.emplace("core.search");
  const auto t_search = Clock::now();
  out.plan =
      optimizer.optimize_over(canon.app, std::move(candidates), od, canon.deadline_h, ctx);
  out.search_s = seconds_since(t_search);
  return out;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
