// Level-2 enumeration kernel benchmark (DESIGN.md "Optimizer fast path").
// Times end-to-end optimize() (the incremental branch-and-bound search)
// against the exhaustive reference scan (tests/support/reference_search.h: a
// fresh CostModel::evaluate per tuple) across K ∈ {4, 8} candidate groups and
// two bid-grid densities, and reports the work counters behind the speedup:
// logical evaluations (the fingerprinted exhaustive count), evaluations
// actually performed, pruned tuples/subtrees, and ns per performed
// evaluation.
//
// Every case cross-checks the two searches' plans field-by-field before
// reporting — a speedup from a wrong plan is a bug, not a result.
//
//   bench_opt_enum [--json <path>] [--check <baseline.json>]
//
// --check gates the *work counters* (evaluations per optimize call) against
// a committed baseline instead of wall time: counts are deterministic (each
// solve is one serial pass), so the gate is exact on any runner, while a
// wall-clock gate on shared CI hardware is noise. Regressing a fast-path
// count above baseline
// (+5% headroom for intentional model changes) fails the run.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "profile/paper_profiles.h"
#include "support/reference_search.h"
#include "trace/market.h"

using namespace sompi;

namespace {

struct Case {
  std::string name;
  std::size_t max_candidates;  // the paper's K
  std::size_t log_levels;      // bid-grid density
};

struct Measurement {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t iters = 0;
  Plan plan;
};

OptimizerConfig case_config(const Case& c) {
  OptimizerConfig cfg;
  cfg.max_candidates = c.max_candidates;
  cfg.max_groups = 4;
  cfg.enumerate_smaller_subsets = true;
  cfg.setup.log_levels = c.log_levels;
  cfg.setup.failure.samples = 800;
  cfg.ratio_bins = 64;
  return cfg;
}

/// Times `iters` calls of `solve`, keeping the last plan.
template <typename Solve>
Measurement measure(const Solve& solve, std::size_t iters) {
  Measurement m;
  m.iters = iters;
  std::vector<double> samples;
  samples.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    m.plan = solve();
    samples.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
  }
  for (double s : samples) m.mean_ms += s;
  m.mean_ms /= static_cast<double>(samples.size());
  m.p50_ms = bench::percentile_nearest_rank(samples, 0.50);
  m.p99_ms = bench::percentile_nearest_rank(samples, 0.99);
  return m;
}

bool plans_identical(const Plan& a, const Plan& b) {
  if (std::bit_cast<std::uint64_t>(a.expected.cost_usd) !=
      std::bit_cast<std::uint64_t>(b.expected.cost_usd))
    return false;
  if (a.spot_feasible != b.spot_feasible) return false;
  if (a.model_evaluations != b.model_evaluations) return false;
  if (a.groups.size() != b.groups.size()) return false;
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].name != b.groups[i].name) return false;
    if (std::bit_cast<std::uint64_t>(a.groups[i].bid_usd) !=
        std::bit_cast<std::uint64_t>(b.groups[i].bid_usd))
      return false;
    if (a.groups[i].f_steps != b.groups[i].f_steps) return false;
  }
  return true;
}

/// The value following `flag`, or "" when absent.
std::string arg_value(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == flag) return argv[i + 1];
  return "";
}

/// Minimal baseline lookup: finds the record with the given name in a file
/// written by bench_util.h's write_json and returns the numeric field `key`.
/// Records are one per line, so a flat string scan is sufficient.
std::optional<double> baseline_field(const std::string& text, const std::string& record,
                                     const std::string& key) {
  const std::string tag = "\"name\": \"" + record + "\"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t end = text.find('}', at);
  const std::string want = "\"" + key + "\": ";
  const std::size_t field = text.find(want, at);
  if (field == std::string::npos || field > end) return std::nullopt;
  return std::strtod(text.c_str() + field + want.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string check_path = arg_value(argc, argv, "--check");

  bench::banner("opt_enum", "Level-2 bid-tuple enumeration: incremental B&B vs reference scan");

  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator est;
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), /*days=*/4.0,
                      /*step_hours=*/0.25, /*seed=*/77);
  const OnDemandSelector selector(&catalog, &est);
  const AppProfile app = paper_profile("BT");
  const double deadline = selector.baseline(app).t_h * 1.5;

  const std::vector<Case> cases = {
      {"K4_L5", 4, 5}, {"K4_L8", 4, 8}, {"K8_L5", 8, 5}, {"K8_L8", 8, 8}};

  std::vector<bench::JsonResult> results;
  bool ok = true;

  std::printf("%-8s %12s %12s %12s %12s %12s %10s %10s\n", "case", "engine", "mean_ms",
              "evals_logical", "evals_done", "pruned", "ns/eval", "speedup");
  for (const Case& c : cases) {
    const OptimizerConfig cfg = case_config(c);
    const SompiOptimizer fast(&catalog, &est, cfg);

    const Measurement mr = measure(
        [&] { return reference_optimize(catalog, est, cfg, app, market, deadline); },
        /*iters=*/2);
    const Measurement mf =
        measure([&] { return fast.optimize(app, market, deadline); }, /*iters=*/5);

    if (!plans_identical(mr.plan, mf.plan)) {
      std::fprintf(stderr, "FAIL %s: incremental plan differs from reference plan\n",
                   c.name.c_str());
      ok = false;
    }

    const auto& st = mf.plan.stats;
    const double ref_ns_per_eval =
        mr.mean_ms * 1e6 / static_cast<double>(mr.plan.stats.evaluations);
    const double fast_ns_per_eval = mf.mean_ms * 1e6 / static_cast<double>(st.evaluations);
    const double speedup = mr.mean_ms / mf.mean_ms;

    std::printf("%-8s %12s %12.3f %12zu %12zu %12s %10.1f %10s\n", c.name.c_str(), "reference",
                mr.mean_ms, mr.plan.model_evaluations, mr.plan.stats.evaluations, "-",
                ref_ns_per_eval, "1.00x");
    std::printf("%-8s %12s %12.3f %12zu %12zu %12zu %10.1f %9.2fx\n", c.name.c_str(),
                "incremental", mf.mean_ms, mf.plan.model_evaluations, st.evaluations,
                st.tuples_pruned, fast_ns_per_eval, speedup);

    results.push_back({c.name + "/reference", mr.iters, mr.mean_ms, mr.p50_ms, mr.p99_ms,
                       {{"model_evals", static_cast<double>(mr.plan.model_evaluations)},
                        {"evals_performed", static_cast<double>(mr.plan.stats.evaluations)},
                        {"ns_per_eval", ref_ns_per_eval}}});
    results.push_back({c.name + "/incremental", mf.iters, mf.mean_ms, mf.p50_ms, mf.p99_ms,
                       {{"model_evals", static_cast<double>(mf.plan.model_evaluations)},
                        {"evals_performed", static_cast<double>(st.evaluations)},
                        {"tuples_visited", static_cast<double>(st.tuples_visited)},
                        {"tuples_pruned", static_cast<double>(st.tuples_pruned)},
                        {"subtrees_pruned", static_cast<double>(st.subtrees_pruned)},
                        {"subsets_pruned", static_cast<double>(st.subsets_pruned)},
                        {"ns_per_eval", fast_ns_per_eval},
                        {"speedup_vs_reference", speedup}}});
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", check_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string baseline = buf.str();
    // Gate the deterministic work counts, not wall time. model_evals is the
    // fingerprinted exhaustive count (must match exactly); evals_performed
    // and tuples_visited measure pruning effectiveness (+5% headroom).
    for (const bench::JsonResult& r : results) {
      for (const auto& [key, value] : r.counters) {
        if (key != "model_evals" && key != "evals_performed" && key != "tuples_visited") continue;
        const std::optional<double> base = baseline_field(baseline, r.name, key);
        if (!base) {
          std::fprintf(stderr, "FAIL: baseline %s lacks %s for %s\n", check_path.c_str(),
                       key.c_str(), r.name.c_str());
          ok = false;
          continue;
        }
        const double limit = key == "model_evals" ? *base : *base * 1.05;
        if (value > limit) {
          std::fprintf(stderr, "FAIL: %s %s = %.0f exceeds baseline %.0f (limit %.0f)\n",
                       r.name.c_str(), key.c_str(), value, *base, limit);
          ok = false;
        }
      }
    }
    if (ok) bench::note("work-count check passed against " + check_path);
  }

  if (!json_path.empty()) bench::write_json(json_path, results);
  return ok ? 0 : 1;
}
