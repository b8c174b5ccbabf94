// §4.2.2 — optimization-space reduction (google-benchmark). The paper's
// example: a naive grid over (bid × interval)^k is ~10^16 points; decoupling
// the on-demand choice, tying F = φ(P) and searching bids logarithmically
// shrinks it to ~2000. We time the actual optimizer under: logarithmic vs
// uniform bid grids, with and without smaller-subset enumeration, and report
// model-evaluation counts alongside.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "profile/paper_profiles.h"
#include "sim/experiment.h"

using namespace sompi;

namespace {

const Experiment& env() {
  static const Experiment e(
      [] {
        Experiment::Options o = Experiment::defaults();
        o.runs = 1;  // the MC harness is unused here
        return o;
      }());
  return e;
}

OptimizerConfig base_config() { return env().sompi_config(); }

void run_once(benchmark::State& state, const OptimizerConfig& cfg) {
  const AppProfile bt = paper_profile("BT");
  const double deadline = env().deadline(bt, /*loose=*/true);
  const SompiOptimizer opt(&env().catalog(), &env().estimator(), cfg);
  std::size_t evals = 0;
  double cost = 0.0;
  for (auto _ : state) {
    const Plan plan = opt.optimize(bt, env().market(), deadline);
    evals = plan.model_evaluations;
    cost = plan.expected.cost_usd;
    benchmark::DoNotOptimize(plan);
  }
  state.counters["model_evals"] = static_cast<double>(evals);
  state.counters["plan_cost_usd"] = cost;
}

void BM_LogarithmicSearch(benchmark::State& state) { run_once(state, base_config()); }

void BM_UniformGrid16(benchmark::State& state) {
  OptimizerConfig cfg = base_config();
  cfg.setup.bid_grid = BidGridKind::kUniform;
  cfg.setup.uniform_points = 16;
  run_once(state, cfg);
}

void BM_UniformGrid32(benchmark::State& state) {
  OptimizerConfig cfg = base_config();
  cfg.setup.bid_grid = BidGridKind::kUniform;
  cfg.setup.uniform_points = 32;
  run_once(state, cfg);
}

void BM_ExactSubsetSizeOnly(benchmark::State& state) {
  OptimizerConfig cfg = base_config();
  cfg.enumerate_smaller_subsets = false;  // the paper's "exactly k of K"
  run_once(state, cfg);
}

void BM_KappaSweep(benchmark::State& state) {
  OptimizerConfig cfg = base_config();
  cfg.max_groups = static_cast<int>(state.range(0));
  cfg.max_candidates = static_cast<std::size_t>(state.range(0)) + 3;
  run_once(state, cfg);
}

}  // namespace

BENCHMARK(BM_LogarithmicSearch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniformGrid16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniformGrid32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactSubsetSizeOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KappaSweep)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);

namespace {

// Console output as usual, plus a record per run for --json (google-benchmark
// reports mean time only, so p50/p99 fall back to the mean — see
// bench_util.h).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const double ms = run.GetAdjustedRealTime();  // all benches use kMillisecond
      results.push_back({run.benchmark_name(), static_cast<std::size_t>(run.iterations),
                         ms, ms, ms, {}});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<sompi::bench::JsonResult> results;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off --json <path> (google-
// benchmark rejects flags it does not know) and emit the machine-readable
// results alongside the normal console report.
int main(int argc, char** argv) {
  const std::string json_path = sompi::bench::json_path_from_args(argc, argv);
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) sompi::bench::write_json(json_path, reporter.results);
  benchmark::Shutdown();
  return 0;
}
