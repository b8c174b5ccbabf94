// Platform cost-model benchmark (DESIGN.md §12).
// Times the deterministic op-level models (p2p / tree collectives /
// checkpoint I/O) over the committed heterogeneous example platform and one
// full optimizer solve through the platform-backed estimator, and emits the
// modeled costs as exact counters.
//
//   bench_platform [--json <path>] [--check <baseline.json>]
//
// Two structural gates run on every invocation, timing-free:
//   * flat identity   — a Platform::flat estimator must produce the same
//     plan fingerprint as the legacy catalog-only estimator (the bit-exact
//     regression anchor for the whole subsystem);
//   * hetero diverge  — the example platform (slow-network zone, shared
//     uplinks) must CHANGE the fingerprint, or the platform is dead weight.
// --check additionally gates every counter exactly against the committed
// baseline: the modeled nanoseconds are pure functions of the platform text
// and the catalog, so any drift is a real model change, not noise.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/catalog.h"
#include "common/rng.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "platform/examples.h"
#include "platform/models.h"
#include "platform/platform.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "trace/market.h"

using namespace sompi;

namespace {

constexpr std::size_t kP2pBytes = 64 * 1024;
constexpr std::size_t kCollectiveBytes = 1024 * 1024;
constexpr int kCollectiveRanks = 16;
constexpr std::uint64_t kSnapshotBytes = 1ull << 30;  // 1 GiB of checkpoint state
constexpr int kInstances = 4;
constexpr int kSweepIters = 50;
constexpr std::uint64_t kMarketSeed = 97;

/// One sweep of every model over every (type, zone) of the example platform;
/// the accumulated llround(sec·1e9) sums are the gateable counters.
struct SweepCosts {
  long long p2p_ns = 0;
  long long bcast_ns = 0;
  long long allreduce_ns = 0;
  long long cache_write_ns = 0;
  long long flush_ns = 0;
  long long restore_ns = 0;
  bool allreduce_is_two_bcasts = true;
};

SweepCosts run_sweep(const Catalog& catalog, const platform::NetworkModel& net) {
  SweepCosts c;
  for (const InstanceType& type : catalog.types()) {
    for (const Zone& zone : catalog.zones()) {
      const double bcast =
          net.bcast_seconds(type, zone.name, kCollectiveBytes, kCollectiveRanks);
      const double allreduce =
          net.allreduce_seconds(type, zone.name, kCollectiveBytes, kCollectiveRanks);
      if (allreduce != 2.0 * bcast) c.allreduce_is_two_bcasts = false;
      c.p2p_ns += std::llround(net.p2p_seconds(type, zone.name, kP2pBytes, 8) * 1e9);
      c.bcast_ns += std::llround(bcast * 1e9);
      c.allreduce_ns += std::llround(allreduce * 1e9);
      c.cache_write_ns += std::llround(
          net.cache_write_seconds(type, zone.name, kSnapshotBytes, kInstances) * 1e9);
      c.flush_ns +=
          std::llround(net.flush_seconds(type, zone.name, kSnapshotBytes, kInstances) * 1e9);
      c.restore_ns += std::llround(
          net.restore_seconds(type, zone.name, kSnapshotBytes, kInstances, false) * 1e9);
    }
  }
  return c;
}

/// Same solve as tests/test_platform.cpp: legacy-derived deadline for every
/// estimator, so a fingerprint difference indicts the per-group profiles.
std::string solve_fingerprint(const Catalog& catalog, const ExecTimeEstimator& estimator) {
  Rng rng(kMarketSeed);
  const Market market = generate_market(catalog, random_market_profile(catalog, rng), 1.5,
                                        0.25, kMarketSeed);
  const AppProfile app = paper_profile("BT");
  const ExecTimeEstimator legacy;
  const double deadline_h = OnDemandSelector(&catalog, &legacy).baseline(app).t_h * 1.5;
  OptimizerConfig config;
  config.max_candidates = 4;
  config.max_groups = 2;
  config.setup.log_levels = 3;
  config.setup.failure.samples = 400;
  config.ratio_bins = 32;
  const SompiOptimizer optimizer(&catalog, &estimator, config);
  return plan_fingerprint(optimizer.optimize(app, market, deadline_h));
}

std::string arg_value(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == flag) return argv[i + 1];
  return "";
}

/// Same flat-scan baseline lookup as bench_multilevel_ckpt.
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

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string check_path = arg_value(argc, argv, "--check");

  bench::banner("platform",
                "Op-level platform cost models + platform-backed optimizer solve");

  bool ok = true;
  std::vector<bench::JsonResult> results;

  const Catalog catalog = paper_catalog();
  const platform::Platform hetero = platform::example_hetero_platform();
  const platform::NetworkModel net(&hetero);

  // --- model sweep: every op over every (type, zone) of the example --------
  SweepCosts sweep;
  std::vector<double> sweep_ms(kSweepIters);
  for (int i = 0; i < kSweepIters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sweep = run_sweep(catalog, net);
    sweep_ms[i] = ms_since(t0);
  }
  double sweep_mean = 0.0;
  for (const double ms : sweep_ms) sweep_mean += ms;
  sweep_mean /= static_cast<double>(kSweepIters);

  std::printf("%-12s %14s %14s %14s %14s %14s %14s\n", "sweep", "p2p_ns", "bcast_ns",
              "allred_ns", "cache_ns", "flush_ns", "restore_ns");
  std::printf("%-12s %14lld %14lld %14lld %14lld %14lld %14lld\n", "hetero", sweep.p2p_ns,
              sweep.bcast_ns, sweep.allreduce_ns, sweep.cache_write_ns, sweep.flush_ns,
              sweep.restore_ns);
  if (!sweep.allreduce_is_two_bcasts) {
    std::fprintf(stderr, "FAIL: allreduce is not bitwise two bcasts somewhere\n");
    ok = false;
  }
  results.push_back({"collectives",
                     static_cast<std::size_t>(kSweepIters),
                     sweep_mean,
                     bench::percentile_nearest_rank(sweep_ms, 0.5),
                     bench::percentile_nearest_rank(sweep_ms, 0.99),
                     {{"p2p_ns", static_cast<double>(sweep.p2p_ns)},
                      {"bcast_ns", static_cast<double>(sweep.bcast_ns)},
                      {"allreduce_ns", static_cast<double>(sweep.allreduce_ns)},
                      {"cache_write_ns", static_cast<double>(sweep.cache_write_ns)},
                      {"flush_ns", static_cast<double>(sweep.flush_ns)},
                      {"restore_ns", static_cast<double>(sweep.restore_ns)}}});

  // --- full solves: flat identity, hetero divergence ------------------------
  const platform::Platform flat = platform::Platform::flat(catalog);
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator flat_est(&flat);
  const ExecTimeEstimator hetero_est(&hetero);

  const std::string legacy_fp = solve_fingerprint(catalog, legacy);
  const std::string flat_fp = solve_fingerprint(catalog, flat_est);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string hetero_fp = solve_fingerprint(catalog, hetero_est);
  const double hetero_solve_ms = ms_since(t0);

  const bool flat_matches = flat_fp == legacy_fp;
  const bool hetero_diverges = hetero_fp != legacy_fp;
  if (!flat_matches) {
    std::fprintf(stderr, "FAIL: flat-platform plan fingerprint diverged from legacy\n");
    ok = false;
  }
  if (!hetero_diverges) {
    std::fprintf(stderr, "FAIL: hetero platform did not change the plan fingerprint\n");
    ok = false;
  }
  if (ok)
    bench::note("flat solve == legacy; hetero diverges (" + std::to_string(hetero_solve_ms) +
                " ms/solve)");

  results.push_back({"plans",
                     1,
                     hetero_solve_ms,
                     hetero_solve_ms,
                     hetero_solve_ms,
                     {{"flat_matches_legacy", flat_matches ? 1.0 : 0.0},
                      {"hetero_diverges", hetero_diverges ? 1.0 : 0.0}}});

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", check_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string baseline = buf.str();
    // Every counter is a pure function of the platform text and the catalog,
    // so the gate is exact (timing fields are not gated).
    for (const bench::JsonResult& r : results) {
      for (const auto& [key, value] : r.counters) {
        const std::optional<double> base = baseline_field(baseline, r.name, key);
        if (!base) {
          std::fprintf(stderr, "FAIL: baseline %s lacks %s for %s\n", check_path.c_str(),
                       key.c_str(), r.name.c_str());
          ok = false;
          continue;
        }
        if (value != *base) {
          std::fprintf(stderr, "FAIL: %s %s = %.6f != baseline %.6f\n", r.name.c_str(),
                       key.c_str(), value, *base);
          ok = false;
        }
      }
    }
    if (ok) bench::note("deterministic-counter check passed against " + check_path);
  }

  if (!json_path.empty()) bench::write_json(json_path, results);
  return ok ? 0 : 1;
}
