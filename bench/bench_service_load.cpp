// Closed-loop load generator for the PlanService (the serving-layer
// counterpart of bench_opt_overhead's solver timings).
//
//   $ ./bench_service_load [--threads T=4] [--iters N=500] [--requests R=8]
//                          [--fresh-every K=200] [--json <path>]
//                          [--shards N] [--check <baseline.json>]
//
// Default (single-service) mode, three phases:
//   1. UNCACHED — solve R distinct requests once each, optimizer only: the
//      baseline cost of planning without the serving layer.
//   2. WARM     — T closed-loop threads × N iterations over the same R
//      requests (every Kth request is a never-seen-before deadline, so the
//      mix keeps a trickle of compulsory misses). Reports throughput, hit
//      rate, and p50/p99 per-request latency.
//   3. BURST    — 16 threads fire one identical request at a fresh epoch;
//      the dedup counters must show exactly one solve.
//
// Acceptance gates printed at the end (ISSUE 2): warm throughput ≥ 50× the
// uncached solve rate, warm hit rate ≥ 90%, burst solves == 1.
//
// --shards N switches to the sharded-tier mode (ISSUE 8): a pinned
// solve-bound workload of unique requests runs through a sequential 1-shard
// oracle, then concurrently through a 1-shard and an N-shard tier, then a
// cross-shard spray burst. Gates: every concurrent response bit-matches the
// oracle fingerprint; unique solves, conservation and the dedup ledger are
// exact; the tier's shared failure-model cache builds each candidate
// group's model once for all 48 deadline-only-different requests; the burst
// solves once; and N-shard throughput clears a
// hardware-aware floor of min(N, threads, cores) × 1-shard throughput × 0.3
// (wall clock is never gated tighter than that — shared runners are noisy).
// --check additionally compares the deterministic counters against a
// committed baseline (bench/BENCH_sharded_service.json), exact-equality.
//
// In both modes every record's p50/p99 is a nearest-rank percentile of
// per-request latencies; a record that timed requests but reports
// p50 <= 0 or p50 > p99 fails the run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "service/plan_service.h"
#include "service/sharded/batch.h"
#include "service/sharded/sharded_service.h"

using namespace sompi;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  unsigned threads = 4;
  int iters = 500;
  int requests = 8;
  int fresh_every = 200;
  int shards = 0;  // 0 = legacy single-service mode
  std::string json_path;
  std::string check_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.json_path = bench::json_path_from_args(argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") a.threads = static_cast<unsigned>(std::atoi(argv[i + 1]));
    if (arg == "--iters") a.iters = std::atoi(argv[i + 1]);
    if (arg == "--requests") a.requests = std::atoi(argv[i + 1]);
    if (arg == "--fresh-every") a.fresh_every = std::atoi(argv[i + 1]);
    if (arg == "--shards") a.shards = std::atoi(argv[i + 1]);
    if (arg == "--check") a.check_path = argv[i + 1];
  }
  return a;
}

void gate(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
}

// Every record that timed something must report a positive p50 no larger
// than its p99; a zero or inverted pair means a latency was never recorded.
bool latencies_recorded(const std::vector<bench::JsonResult>& results) {
  bool ok = true;
  for (const bench::JsonResult& r : results) {
    if (r.iters == 0 || (r.p50_ms > 0.0 && r.p50_ms <= r.p99_ms)) continue;
    std::fprintf(stderr, "FAIL: %s reports p50 %.6f ms, p99 %.6f ms over %zu iters\n",
                 r.name.c_str(), r.p50_ms, r.p99_ms, r.iters);
    ok = false;
  }
  return ok;
}

// Flat-JSON field extractor, same idiom as bench_feed_throughput's --check:
// the bench JSON is one object per record, so substring scoping suffices.
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

// ---------------------------------------------------------------------------
// Sharded-tier mode.

int run_sharded(const Args& args) {
  bench::banner("SERVICE-LOAD/SHARDED",
                "N-shard plan tier vs single-shard oracle: equivalence + scaling");

  // The workload is PINNED (not derived from --iters/--requests): the
  // committed baseline gates its deterministic counters exactly, so every
  // invocation must run the identical request set.
  constexpr int kUnique = 48;
  constexpr int kBurst = 16;
  const std::size_t shards = static_cast<std::size_t>(std::max(args.shards, 1));

  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/3.0,
                                  /*step_hours=*/0.25, /*seed=*/2014);

  const AppProfile bt = paper_profile("BT");
  const double baseline_h = OnDemandSelector(&catalog, &est).baseline(bt).t_h;
  const auto request_for = [&](int which) {
    PlanRequest r;
    r.app = bt;
    // Every request unique: the scaling phases are deliberately solve-bound
    // (one solve slot per shard), so shard count is the parallelism axis.
    r.deadline_h = baseline_h * (1.4 + 0.01 * which);
    return r;
  };

  const auto tier_config = [&](std::size_t n) {
    ShardedConfig c;
    c.shards = n;
    c.vnodes = 64;
    c.salt = 0x5CA1EDULL;
    c.service.cache = {.shards = 4, .capacity = 256};
    c.service.max_concurrent_solves = 1;  // solve-bound by construction
    c.service.max_queued_solves = 4096;   // nothing sheds
    // Small solves so the pinned workload stays fast; what matters is that
    // they dominate the per-request cost.
    c.service.opt.max_candidates = 2;
    c.service.opt.max_groups = 1;
    c.service.opt.setup.log_levels = 2;
    c.service.opt.setup.failure.samples = 200;
    c.service.opt.ratio_bins = 16;
    return c;
  };

  // --- Phase 1: sequential single-shard oracle ----------------------------
  std::map<std::string, std::string> oracle_fp;  // canonical key → fingerprint
  double oracle_wall_s = 0.0;
  std::vector<double> oracle_lat;
  {
    ShardedPlanService oracle(&catalog, &est, market, tier_config(1));
    const auto t0 = Clock::now();
    for (int i = 0; i < kUnique; ++i) {
      const PlanRequest r = request_for(i);
      const auto t_req = Clock::now();
      const PlanResponse response = oracle.serve(r);
      oracle_lat.push_back(seconds_since(t_req));
      if (response.plan == nullptr) {
        std::fprintf(stderr, "FAIL: oracle shed a request\n");
        return 1;
      }
      oracle_fp[canonical_key(canonicalized(r))] = plan_fingerprint(*response.plan);
    }
    oracle_wall_s = seconds_since(t0);
    if (oracle.stats().total.solves != static_cast<std::uint64_t>(kUnique)) {
      std::fprintf(stderr, "FAIL: oracle did not solve every unique request\n");
      return 1;
    }
  }
  std::printf("oracle:   %d sequential solves in %.2f s (1 shard)\n", kUnique, oracle_wall_s);

  // One concurrent closed-loop pass over the workload: T threads drain a
  // shared index, each request sprayed round-robin across the tier's shards.
  // Returns the wall time and every request's latency.
  std::atomic<std::uint64_t> fp_mismatches{0};
  const auto run_pass = [&](ShardedPlanService& tier) {
    const unsigned n_threads = std::max(1u, args.threads);
    std::atomic<int> next{0};
    std::vector<std::vector<double>> lat(n_threads);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        for (;;) {
          const int i = next.fetch_add(1);
          if (i >= kUnique) return;
          const PlanRequest r = request_for(i);
          const auto t_req = Clock::now();
          const PlanResponse response =
              tier.serve_on(static_cast<std::size_t>(i) % tier.shard_count(), r);
          lat[t].push_back(seconds_since(t_req));
          if (response.plan == nullptr ||
              plan_fingerprint(*response.plan) != oracle_fp[canonical_key(canonicalized(r))])
            fp_mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double wall_s = seconds_since(t0);
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    return std::make_pair(wall_s, std::move(all));
  };

  // --- Phase 2: concurrent, 1 shard vs N shards ---------------------------
  ShardedPlanService one(&catalog, &est, market, tier_config(1));
  const double wall_1 = run_pass(one).first;
  const double rps_1 = kUnique / wall_1;

  ShardedPlanService tier(&catalog, &est, market, tier_config(shards));
  const auto [wall_n, scale_lat] = run_pass(tier);
  const double rps_n = kUnique / wall_n;
  std::printf("scale:    1 shard %.0f plans/s  |  %zu shards %.0f plans/s  (%.2fx)\n", rps_1,
              shards, rps_n, rps_n / rps_1);

  // The requests differ only by deadline, so their groups' failure models
  // are the same: the tier's shared cache builds each candidate group's
  // model once, not once per request.
  std::uint64_t candidate_groups = 0;
  for (const CircleGroupSpec& g : catalog.all_groups())
    candidate_groups += est.hours(bt, catalog.type(g.type_index),
                                  catalog.zone(g.zone_index).name) <=
                        request_for(kUnique - 1).deadline_h;
  const std::uint64_t models_built = tier.stats().total.failure_models_built;
  const bool models_ok =
      models_built == candidate_groups && tier.model_cache_stats().builds == candidate_groups;
  std::printf("models:   %llu failure models built for %d requests over %llu candidate groups\n",
              static_cast<unsigned long long>(models_built), kUnique,
              static_cast<unsigned long long>(candidate_groups));

  // --- Phase 3: identical cross-shard burst -------------------------------
  const ShardedStats pre_burst = tier.stats();
  {
    std::vector<std::thread> burst;
    for (int t = 0; t < kBurst; ++t)
      burst.emplace_back([&, t] {
        (void)tier.serve_on(static_cast<std::size_t>(t) % tier.shard_count(),
                            request_for(kUnique));  // a key no phase has seen
      });
    for (auto& th : burst) th.join();
  }
  const ShardedStats post_burst = tier.stats();
  const std::uint64_t burst_solves = post_burst.total.solves - pre_burst.total.solves;
  std::printf("burst:    %d identical sprayed requests → %llu solve(s)\n", kBurst,
              static_cast<unsigned long long>(burst_solves));

  // --- Phase 4: epoch churn — warm re-plans vs the cold oracle -------------
  // Aggregate counters for the solve-economy gates are snapshotted BEFORE the
  // churn, which deliberately adds re-solves.
  const ShardedStats stats = tier.stats();
  std::uint64_t churn_divergence = 0;
  constexpr int kChurn = 8;
  for (int c = 0; c < kChurn; ++c) {
    // Alternate real single-group deltas with forced (empty) bumps; every
    // served key was solved in phase 2, so each serve is a warm re-plan.
    if (c % 2 == 0)
      tier.fanout().ingest({PriceUpdate{{0, 0}, {0.05 + 0.001 * c}}});
    else
      tier.fanout().ingest({});
    const PlanRequest r = request_for(c % 4);
    const std::size_t home = tier.home_shard(r);
    const MarketSnapshot snap = tier.board(home).snapshot();
    const PlanResponse warm = tier.serve(r);
    if (warm.plan == nullptr ||
        plan_fingerprint(*warm.plan) !=
            plan_fingerprint(tier.shard(home).solve(canonicalized(r), *snap.market)))
      ++churn_divergence;
  }
  const std::uint64_t churn_replans =
      tier.stats().total.replan_count - stats.total.replan_count;
  std::printf("churn:    %d epoch bumps → %llu warm re-plan(s), %llu divergence(s)\n", kChurn,
              static_cast<unsigned long long>(churn_replans),
              static_cast<unsigned long long>(churn_divergence));

  // --- Gates ---------------------------------------------------------------
  std::uint64_t sum_requests = 0;
  for (const ServiceStats& shard : stats.per_shard) sum_requests += shard.requests;
  const bool conserve =
      sum_requests == stats.total.requests &&
      stats.total.hits + stats.total.solves + stats.total.dedup_joins + stats.total.sheds ==
          stats.total.requests &&
      stats.routed + stats.sprayed == stats.total.requests;
  // Hardware-aware scaling floor: the tier is solve-bound with one solve
  // slot per shard, so the ideal speedup is min(shards, threads, cores);
  // demand 30% of it — loose enough for noisy shared runners, tight enough
  // to catch accidental serialization (a global lock would pin this to ~1x).
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  const double expected =
      std::min({static_cast<double>(shards), static_cast<double>(std::max(1u, args.threads)),
                cores});
  const bool scaling_ok = rps_n >= 0.3 * expected * rps_1;

  bench::note("acceptance gates");
  gate("every concurrent plan bit-matches the 1-shard oracle", fp_mismatches.load() == 0);
  gate("unique solves == unique requests (exactly-once economy)",
       stats.total.solves == static_cast<std::uint64_t>(kUnique) + burst_solves);
  gate("zero duplicate solves in the tier ledger", stats.duplicate_solves == 0);
  gate("one failure model per candidate group across the deadline-only-different requests",
       models_ok);
  gate("per-shard counters conserve the aggregate", conserve);
  gate("zero sheds under the roomy queue", stats.total.sheds == 0);
  gate("exactly one solve per cross-shard identical burst", burst_solves == 1);
  gate("epoch churn re-plans warm (replan_count > 0)", churn_replans > 0);
  gate("zero warm/cold fingerprint divergence under epoch churn", churn_divergence == 0);
  std::printf("  [%s] N-shard throughput clears the hw-aware floor "
              "(%.0f >= 0.3 * %.0f * %.0f)\n",
              scaling_ok ? "PASS" : "FAIL", rps_n, expected, rps_1);

  bool ok = fp_mismatches.load() == 0 && stats.duplicate_solves == 0 && models_ok && conserve &&
            stats.total.sheds == 0 && burst_solves == 1 && scaling_ok &&
            stats.total.solves == static_cast<std::uint64_t>(kUnique) + burst_solves &&
            churn_replans > 0 && churn_divergence == 0;

  std::vector<bench::JsonResult> results;
  results.push_back({"sharded_oracle", static_cast<std::size_t>(kUnique),
                     oracle_wall_s / kUnique * 1e3,
                     bench::percentile_nearest_rank(oracle_lat, 0.50) * 1e3,
                     bench::percentile_nearest_rank(oracle_lat, 0.99) * 1e3,
                     {{"unique_requests", kUnique}}});
  results.push_back({"sharded_scale", static_cast<std::size_t>(kUnique),
                     wall_n / kUnique * 1e3,
                     bench::percentile_nearest_rank(scale_lat, 0.50) * 1e3,
                     bench::percentile_nearest_rank(scale_lat, 0.99) * 1e3,
                     {{"shards", static_cast<double>(shards)},
                      {"requests", static_cast<double>(stats.total.requests)},
                      {"unique_solves", static_cast<double>(stats.total.solves - burst_solves)},
                      {"burst_solves", static_cast<double>(burst_solves)},
                      {"sheds", static_cast<double>(stats.total.sheds)},
                      {"churn_replans", static_cast<double>(churn_replans)},
                      {"churn_divergence", static_cast<double>(churn_divergence)},
                      {"models_built", static_cast<double>(models_built)},
                      {"rps_1shard", rps_1},
                      {"rps_nshard", rps_n}}});
  ok = latencies_recorded(results) && ok;

  if (!args.check_path.empty()) {
    std::ifstream in(args.check_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", args.check_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string baseline = buf.str();
    // Exact-equality gate on the DETERMINISTIC counters only (rps_* are wall
    // clock — never gated against a baseline recorded on another machine).
    for (const bench::JsonResult& r : results) {
      for (const auto& [key, value] : r.counters) {
        if (key != "unique_requests" && key != "shards" && key != "requests" &&
            key != "unique_solves" && key != "burst_solves" && key != "sheds" &&
            key != "churn_replans" && key != "churn_divergence" && key != "models_built")
          continue;
        const std::optional<double> base = baseline_field(baseline, r.name, key);
        if (!base) {
          std::fprintf(stderr, "FAIL: baseline %s lacks %s for %s\n", args.check_path.c_str(),
                       key.c_str(), r.name.c_str());
          ok = false;
          continue;
        }
        if (value != *base) {
          std::fprintf(stderr, "FAIL: %s %s = %.0f != baseline %.0f\n", r.name.c_str(),
                       key.c_str(), value, *base);
          ok = false;
        }
      }
    }
    if (ok) bench::note("deterministic-counter check passed against " + args.check_path);
  }

  if (!args.json_path.empty()) bench::write_json(args.json_path, results);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.shards > 0) return run_sharded(args);
  bench::banner("SERVICE-LOAD",
                "PlanService under closed-loop concurrent load (epoch cache + single-flight)");

  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/3.0,
                                  /*step_hours=*/0.25, /*seed=*/2014);
  MarketBoard board(market);

  ServiceConfig cfg;
  cfg.cache = {.shards = 8, .capacity = 4096};
  cfg.max_concurrent_solves = std::max<std::size_t>(2, args.threads);
  cfg.max_queued_solves = 1024;
  cfg.opt.max_candidates = 4;
  cfg.opt.setup.log_levels = 4;
  cfg.opt.setup.failure.samples = 400;
  cfg.opt.ratio_bins = 48;
  PlanService service(&catalog, &est, &board, cfg);

  const AppProfile bt = paper_profile("BT");
  const double baseline_h = OnDemandSelector(&catalog, &est).baseline(bt).t_h;
  const auto request_for = [&](int which, double jitter = 0.0) {
    PlanRequest r;
    r.app = bt;
    r.deadline_h = baseline_h * (1.4 + 0.1 * which) + jitter;
    return r;
  };

  // --- Phase 1: uncached solves ------------------------------------------
  const MarketSnapshot world = board.snapshot();
  std::vector<double> solve_lat;
  for (int i = 0; i < args.requests; ++i) {
    const auto t0 = Clock::now();
    const Plan plan = service.solve(canonicalized(request_for(i)), *world.market);
    solve_lat.push_back(seconds_since(t0));
    if (plan.model_evaluations == 0) std::printf("warning: degenerate solve\n");
  }
  const double solve_mean_s = std::accumulate(solve_lat.begin(), solve_lat.end(), 0.0) /
                              static_cast<double>(solve_lat.size());
  const double uncached_rps = 1.0 / solve_mean_s;
  std::printf("uncached: %d solves, mean %.2f ms  →  %.1f plans/s\n", args.requests,
              solve_mean_s * 1e3, uncached_rps);

  // --- Phase 2: warm-cache closed loop -----------------------------------
  const ServiceStats before = service.stats();
  std::vector<std::vector<double>> lat(args.threads);
  std::atomic<int> fresh_counter{0};
  const auto t_warm = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < args.threads; ++t) {
    threads.emplace_back([&, t] {
      lat[t].reserve(static_cast<std::size_t>(args.iters));
      for (int i = 0; i < args.iters; ++i) {
        PlanRequest r;
        const int k = static_cast<int>(t) * args.iters + i;
        if (args.fresh_every > 0 && k % args.fresh_every == args.fresh_every - 1) {
          // A never-repeated deadline: a compulsory miss in the mix.
          const int unique = fresh_counter.fetch_add(1);
          r = request_for(0, /*jitter=*/1e-4 * (unique + 1));
        } else {
          r = request_for(k % args.requests);
        }
        const auto t0 = Clock::now();
        const PlanResponse response = service.serve(r);
        lat[t].push_back(seconds_since(t0));
        if (response.outcome == PlanOutcome::kShed) std::printf("warning: shed under warm load\n");
      }
    });
  }
  for (auto& th : threads) th.join();
  const double warm_wall_s = seconds_since(t_warm);
  const ServiceStats after = service.stats();

  std::vector<double> all_lat;
  for (const auto& v : lat) all_lat.insert(all_lat.end(), v.begin(), v.end());
  const std::size_t ops = all_lat.size();
  const double warm_rps = static_cast<double>(ops) / warm_wall_s;
  const double warm_mean_ms =
      std::accumulate(all_lat.begin(), all_lat.end(), 0.0) / static_cast<double>(ops) * 1e3;
  const double p50_ms = bench::percentile_nearest_rank(all_lat, 0.50) * 1e3;
  const double p99_ms = bench::percentile_nearest_rank(all_lat, 0.99) * 1e3;
  const std::uint64_t warm_requests = after.requests - before.requests;
  const double hit_rate =
      static_cast<double>(after.hits - before.hits) / static_cast<double>(warm_requests);
  const double speedup = warm_rps / uncached_rps;

  std::printf("warm:     %zu ops over %u threads in %.2f s  →  %.0f plans/s (%.0fx uncached)\n",
              ops, args.threads, warm_wall_s, warm_rps, speedup);
  std::printf("          hit rate %.1f%%  |  latency mean %.3f ms  p50 %.3f ms  p99 %.3f ms\n",
              hit_rate * 100.0, warm_mean_ms, p50_ms, p99_ms);
  std::printf("          solves %llu  joins %llu  sheds %llu  stale-evicted %llu\n",
              static_cast<unsigned long long>(after.solves - before.solves),
              static_cast<unsigned long long>(after.dedup_joins - before.dedup_joins),
              static_cast<unsigned long long>(after.sheds - before.sheds),
              static_cast<unsigned long long>(after.stale_evicted));

  // --- Phase 3: identical burst at a fresh epoch --------------------------
  board.ingest({});  // bump: nothing is cached for the new epoch
  const ServiceStats pre_burst = service.stats();
  constexpr int kBurst = 16;
  std::vector<std::thread> burst;
  for (int t = 0; t < kBurst; ++t)
    burst.emplace_back([&] { (void)service.serve(request_for(0)); });
  for (auto& th : burst) th.join();
  const ServiceStats post_burst = service.stats();
  const std::uint64_t burst_solves = post_burst.solves - pre_burst.solves;
  const std::uint64_t burst_joins = post_burst.dedup_joins - pre_burst.dedup_joins;
  std::printf("burst:    %d identical requests at a fresh epoch → %llu solve(s), %llu join(s)\n",
              kBurst, static_cast<unsigned long long>(burst_solves),
              static_cast<unsigned long long>(burst_joins));

  bench::note("acceptance gates");
  gate("warm throughput >= 50x uncached", speedup >= 50.0);
  gate("hit rate >= 90% under the repeated-request mix", hit_rate >= 0.90);
  gate("exactly one solve per identical burst", burst_solves == 1);

  std::vector<bench::JsonResult> results;
  results.push_back({"uncached_solve", solve_lat.size(), solve_mean_s * 1e3,
                     bench::percentile_nearest_rank(solve_lat, 0.50) * 1e3,
                     bench::percentile_nearest_rank(solve_lat, 0.99) * 1e3, {}});
  results.push_back({"warm_serve", ops, warm_mean_ms, p50_ms, p99_ms, {}});
  const bool ok = latencies_recorded(results) && speedup >= 50.0 && hit_rate >= 0.90 &&
                  burst_solves == 1;
  if (!args.json_path.empty()) bench::write_json(args.json_path, results);
  return ok ? 0 : 1;
}
