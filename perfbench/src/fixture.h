// Inputs and configurations shared by the workloads: the seeded synthetic
// market, the paper's evaluation apps, the serving-tier configuration, the
// canonical request universe, and the decomposed solve that splits one
// PlanService::solve into its setup and search stages through public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cloud/catalog.h"
#include "core/optimizer.h"
#include "profile/estimator.h"
#include "service/request.h"
#include "service/sharded/sharded_service.h"
#include "trace/market.h"

namespace perfbench {

/// Catalog, estimator and market at stable addresses (Market borrows the
/// catalog). The market is the same for every benchmark seed — the paper
/// market profile at 15-minute steps, generator seed kMarketSeed — so a
/// workload's seed varies what is asked of the system (start points, request
/// streams, ticks), not the market every figure is normalized against.
struct World {
  static constexpr std::uint64_t kMarketSeed = 2015;

  sompi::Catalog catalog = sompi::paper_catalog();
  sompi::ExecTimeEstimator estimator;
  sompi::Market market;

  explicit World(double days);
};

/// The paper's Fig. 5 workloads: BT, SP, LU, FT, IS, BTIO, LAMMPS-32,
/// LAMMPS-128.
std::vector<sompi::AppProfile> evaluation_apps();

/// The on-demand Baseline's full-run cost (paper §5.1 normalization).
double baseline_cost(const World& world, const sompi::AppProfile& app);
double baseline_hours(const World& world, const sompi::AppProfile& app);

/// Serving-tier configuration: 4 shards, a 1024-plan cache budget (4× the
/// serve_mix universe: the one-shot never-seen keys fill the rest and age out
/// of the LRU while every universe key stays resident, which serve_mix
/// checks), and admission limits that never shed the benchmark's load.
sompi::ShardedConfig tier_config(const sompi::OptimizerConfig& opt);

/// Optimizer settings of the serving workloads (a few-millisecond cold solve).
sompi::OptimizerConfig serving_optimizer();

/// apps × deadline factors × allowed type/zone sets, canonicalized, in one
/// fixed shuffled order (index = popularity rank): every seed sees the same
/// hot keys, so seeds differ only in the request sequence drawn over them.
std::vector<sompi::PlanRequest> request_universe(const World& world);

/// Zipf(s) ranks over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One solve split at the optimizer's public seams, the way PlanService runs
/// it: on-demand tier selection and SompiOptimizer::setup_for per candidate
/// group (span core.setup), then optimize_over (span core.search). With a
/// null `ctx` it is the cold path and its plan must be bit-identical to
/// PlanService::solve; with a warm-start context it is a warm re-plan.
struct DecomposedSolve {
  sompi::Plan plan;
  double setup_s = 0.0;   ///< setup_for, summed over candidate groups
  double search_s = 0.0;  ///< optimize_over (tables + branch-and-bound)
};
DecomposedSolve decomposed_solve(const World& world, const sompi::SompiOptimizer& optimizer,
                                 const sompi::PlanRequest& canonical,
                                 const sompi::Market& market,
                                 sompi::ReplanContext* ctx = nullptr);

/// Order-sensitive 64-bit hash combine (run digests, per-run seeds).
std::uint64_t mix64(std::uint64_t h, std::uint64_t v);

}  // namespace perfbench
