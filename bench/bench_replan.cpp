// Warm-start re-plan latency: dirty-group delta size vs cold solve
// (DESIGN.md §14, ISSUE 9).
//
//   $ ./bench_replan [--iters N=30] [--json <path>] [--check <baseline.json>]
//
// A PlanService with warm re-planning serves one unconstrained request over
// a MarketBoard while epochs land with exactly d dirty groups, for
// d ∈ {1, K/2, K} at K = 8 kept candidates. Every epoch is measured twice:
// a cold solve() (the oracle — always the from-scratch path) and the warm
// serve() re-plan. Per iteration the warm plan must be fingerprint-identical
// to the cold one and the work counters must be EXACT:
// tables_reused == K − d, tables_built == d, the CostTableStore misses
// (lookups finding no entry or a stale one) == d, and the expected-price
// sums read d history steps (PlanStats::price_steps_read): each dirty group
// gets one appended price, and its rebuild resumes the sums of the group's
// previous model.
//
// A second service then serves T = 8 tenants (4 apps × 2 deadlines) whose
// scopes share its failure-model cache. After each epoch's d dirty groups
// every tenant re-plans, and the tenants' PlanStats::failure_models_built
// must sum to exactly d — one model per dirty group for all of them, not
// T·d — with their price_steps_read summing to d as well.
//
// Acceptance gates: exactly K candidates kept; exact counters and zero
// fingerprint divergence on every iteration; and the headline —
// single-group-delta warm re-plans are ≥ 5× faster than cold solves (p50).
// --check compares the deterministic counters (kept, delta, tables_*,
// store_*, price_steps_*, models_*, divergence) against the committed baseline
// (bench/BENCH_replan.json) exact-equality; wall-clock ratios are printed
// and gated in-process but never compared across machines.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/plan_service.h"

using namespace sompi;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void gate(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
}

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
  int iters = 30;
  std::string check_path;
  const std::string json_path = bench::json_path_from_args(argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0) iters = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--check") == 0) check_path = argv[i + 1];
  }

  bench::banner("REPLAN", "warm-start re-plan latency vs cold solve, by dirty-group delta");

  constexpr std::size_t kK = 8;  // kept candidate groups — the paper's K
  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/3.0,
                                  /*step_hours=*/0.25, /*seed=*/2015);
  MarketBoard board(market);

  ServiceConfig cfg;
  cfg.cache = {.shards = 2, .capacity = 16};
  cfg.opt.max_candidates = kK;
  cfg.opt.max_groups = 2;
  cfg.opt.setup.log_levels = 2;
  cfg.opt.setup.failure.samples = 200;
  cfg.opt.ratio_bins = 16;
  PlanService service(&catalog, &est, &board, cfg);

  PlanRequest request;
  request.app = paper_profile("BT");
  // Loose enough that far more than K groups pass the deadline filter, so
  // the expected-price pruning (not feasibility) picks the K kept.
  request.deadline_h = OnDemandSelector(&catalog, &est).baseline(request.app).t_h * 4.0;

  // --- Fill: the cold first solve builds everything -------------------------
  const PlanResponse fill = service.serve(request);
  if (fill.outcome != PlanOutcome::kSolved || fill.plan == nullptr) {
    std::fprintf(stderr, "FAIL: fill solve did not run\n");
    return 1;
  }
  const std::uint64_t kept_count = fill.plan->stats.tables_built;
  std::printf("fill:     %llu candidate tables built (K = %zu)\n",
              static_cast<unsigned long long>(kept_count), kK);

  // --- Probe: find the kept candidates by dirtying one group at a time. ----
  // Each probe appends the group's own last price (content changes, ranking
  // barely moves) and checks whether the re-plan rebuilt a table.
  std::vector<CircleGroupSpec> kept;
  for (const CircleGroupSpec& g : catalog.all_groups()) {
    const SpotTrace& trace = board.snapshot().market->trace(g);
    board.ingest({PriceUpdate{g, {trace.price(trace.steps() - 1)}}});
    const PlanResponse probe = service.serve(request);
    if (probe.plan != nullptr && probe.plan->stats.tables_built == 1) kept.push_back(g);
  }
  std::printf("probe:    %zu of %zu groups are kept candidates\n", kept.size(),
              catalog.all_groups().size());
  const bool kept_ok = kept_count == kK && kept.size() == kK;

  // --- Measure: cold vs warm at each delta size -----------------------------
  struct Series {
    std::size_t delta = 0;
    std::vector<double> cold_s;
    std::vector<double> warm_s;
    std::uint64_t counter_errors = 0;
    std::uint64_t divergence = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t store_miss_errors = 0;
    std::uint64_t price_steps = 0;
    std::uint64_t price_steps_errors = 0;
  };
  std::vector<Series> series;
  for (const std::size_t delta : {std::size_t{1}, kK / 2, kK}) {
    Series s;
    s.delta = delta;
    for (int it = 0; it < iters; ++it) {
      std::vector<PriceUpdate> updates;
      for (std::size_t j = 0; j < delta && j < kept.size(); ++j) {
        const CircleGroupSpec g = kept[(static_cast<std::size_t>(it) + j) % kept.size()];
        const SpotTrace& trace = board.snapshot().market->trace(g);
        updates.push_back(PriceUpdate{g, {trace.price(trace.steps() - 1)}});
      }
      board.ingest(updates);
      const MarketSnapshot snap = board.snapshot();

      const auto t_cold = Clock::now();
      const Plan cold = service.solve(canonicalized(request), *snap.market);
      s.cold_s.push_back(seconds_since(t_cold));

      const CostTableStore::Stats store_before = service.table_store_stats();
      const auto t_warm = Clock::now();
      const PlanResponse warm = service.serve(request);
      s.warm_s.push_back(seconds_since(t_warm));
      const CostTableStore::Stats store_after = service.table_store_stats();
      // Lookups that found no usable artifact: absent, or stale because the
      // group's history version moved. Exactly the d dirty groups.
      const std::uint64_t store_misses = (store_after.misses - store_before.misses) +
                                         (store_after.invalidated - store_before.invalidated);
      s.store_misses += store_misses;
      if (store_misses != delta) ++s.store_miss_errors;

      if (warm.outcome != PlanOutcome::kSolved || warm.plan == nullptr) {
        ++s.divergence;
        continue;
      }
      if (plan_fingerprint(*warm.plan) != plan_fingerprint(cold)) ++s.divergence;
      if (warm.plan->stats.tables_built != delta ||
          warm.plan->stats.tables_reused != kK - delta)
        ++s.counter_errors;
      s.price_steps += warm.plan->stats.price_steps_read;
      if (warm.plan->stats.price_steps_read != delta) ++s.price_steps_errors;
    }
    series.push_back(std::move(s));
  }

  // --- Tenants: T scopes re-plan over one shared model cache ----------------
  struct TenantSeries {
    std::size_t delta = 0;
    std::vector<double> epoch_s;  ///< all T warm re-plans of one epoch
    std::uint64_t models_built = 0;
    std::uint64_t model_build_errors = 0;
    std::uint64_t price_steps = 0;
    std::uint64_t price_steps_errors = 0;
    std::uint64_t divergence = 0;
  };
  std::vector<PlanRequest> tenants;
  for (const char* app : {"BT", "SP", "LU", "FT"}) {
    for (const double factor : {4.0, 6.0}) {
      PlanRequest r;
      r.app = paper_profile(app);
      r.deadline_h = OnDemandSelector(&catalog, &est).baseline(r.app).t_h * factor;
      tenants.push_back(canonicalized(r));
    }
  }
  // The groups some tenant can finish in time: the ones the tenants build.
  std::vector<CircleGroupSpec> used;
  for (const CircleGroupSpec& g : catalog.all_groups()) {
    const InstanceType& type = catalog.type(g.type_index);
    const std::string& zone = catalog.zone(g.zone_index).name;
    if (std::any_of(tenants.begin(), tenants.end(), [&](const PlanRequest& t) {
          return est.hours(t.app, type, zone) <= t.deadline_h;
        }))
      used.push_back(g);
  }
  // A market of its own: the first board's appends claimed the shared
  // traces' lineages, so extending them here would fork fresh ones.
  MarketBoard tenant_board(generate_market(catalog, paper_market_profile(catalog), 3.0, 0.25,
                                           /*seed=*/2015));
  PlanService tenant_service(&catalog, &est, &tenant_board, cfg);
  for (const PlanRequest& t : tenants) (void)tenant_service.serve(t);  // fill
  std::vector<TenantSeries> tenant_series;
  std::size_t rotation = 0;
  for (const std::size_t delta : {std::size_t{1}, kK / 2, kK}) {
    TenantSeries s;
    s.delta = delta;
    for (int it = 0; it < iters; ++it) {
      std::vector<PriceUpdate> updates;
      for (std::size_t j = 0; j < delta; ++j) {
        const CircleGroupSpec g = used[rotation++ % used.size()];
        const SpotTrace& trace = tenant_board.snapshot().market->trace(g);
        updates.push_back(PriceUpdate{g, {trace.price(trace.steps() - 1)}});
      }
      tenant_board.ingest(updates);
      const MarketSnapshot snap = tenant_board.snapshot();
      std::uint64_t built = 0, steps = 0;
      double epoch_s = 0.0;
      for (const PlanRequest& t : tenants) {
        const auto t_warm = Clock::now();
        const PlanResponse warm = tenant_service.serve(t);
        epoch_s += seconds_since(t_warm);
        if (warm.outcome != PlanOutcome::kSolved || warm.plan == nullptr ||
            plan_fingerprint(*warm.plan) !=
                plan_fingerprint(tenant_service.solve(t, *snap.market))) {
          ++s.divergence;
          continue;
        }
        built += warm.plan->stats.failure_models_built;
        steps += warm.plan->stats.price_steps_read;
      }
      s.epoch_s.push_back(epoch_s);
      s.models_built += built;
      s.price_steps += steps;
      if (built != delta) ++s.model_build_errors;
      if (steps != delta) ++s.price_steps_errors;
    }
    tenant_series.push_back(std::move(s));
  }

  // --- Report ---------------------------------------------------------------
  const auto p50 = [](const std::vector<double>& v) {
    return bench::percentile_nearest_rank(v, 0.50);
  };
  double speedup_1 = 0.0;
  std::vector<bench::JsonResult> results;
  std::uint64_t counter_errors = 0, divergence = 0, store_miss_errors = 0,
                price_steps_errors = 0;
  for (const Series& s : series) {
    const double cold_ms = p50(s.cold_s) * 1e3;
    const double warm_ms = p50(s.warm_s) * 1e3;
    const double ratio = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
    if (s.delta == 1) speedup_1 = ratio;
    counter_errors += s.counter_errors;
    divergence += s.divergence;
    store_miss_errors += s.store_miss_errors;
    price_steps_errors += s.price_steps_errors;
    std::printf("delta %zu:  cold p50 %8.3f ms  |  warm p50 %8.3f ms  |  %5.1fx"
                "  (reused %zu, rebuilt %zu)\n",
                s.delta, cold_ms, warm_ms, ratio, kK - s.delta, s.delta);
    const double warm_mean_ms =
        std::accumulate(s.warm_s.begin(), s.warm_s.end(), 0.0) /
        static_cast<double>(s.warm_s.size()) * 1e3;
    results.push_back({"replan_delta_" + std::to_string(s.delta), s.warm_s.size(),
                       warm_mean_ms, warm_ms,
                       bench::percentile_nearest_rank(s.warm_s, 0.99) * 1e3,
                       {{"kept", static_cast<double>(kK)},
                        {"delta", static_cast<double>(s.delta)},
                        {"tables_reused", static_cast<double>(kK - s.delta)},
                        {"tables_built", static_cast<double>(s.delta)},
                        {"counter_errors", static_cast<double>(s.counter_errors)},
                        {"divergence", static_cast<double>(s.divergence)},
                        {"store_misses_per_replan",
                         static_cast<double>(s.store_misses) /
                             static_cast<double>(s.warm_s.size())},
                        {"store_miss_errors", static_cast<double>(s.store_miss_errors)},
                        {"price_steps_read_per_replan",
                         static_cast<double>(s.price_steps) /
                             static_cast<double>(s.warm_s.size())},
                        {"price_steps_errors", static_cast<double>(s.price_steps_errors)},
                        {"cold_p50_ms", cold_ms},
                        {"speedup_p50", ratio}}});
  }
  std::uint64_t model_build_errors = 0;
  for (const TenantSeries& s : tenant_series) {
    const double per_epoch = static_cast<double>(s.models_built) /
                             static_cast<double>(s.epoch_s.size());
    model_build_errors += s.model_build_errors;
    price_steps_errors += s.price_steps_errors;
    divergence += s.divergence;
    std::printf("tenants:  %zu scopes, delta %zu: %5.2f failure models built per epoch "
                "(%zu without the shared cache)  |  epoch re-plans p50 %7.3f ms\n",
                tenants.size(), s.delta, per_epoch, tenants.size() * s.delta,
                p50(s.epoch_s) * 1e3);
    results.push_back({"replan_tenants_delta_" + std::to_string(s.delta), s.epoch_s.size(),
                       std::accumulate(s.epoch_s.begin(), s.epoch_s.end(), 0.0) /
                           static_cast<double>(s.epoch_s.size()) * 1e3,
                       p50(s.epoch_s) * 1e3,
                       bench::percentile_nearest_rank(s.epoch_s, 0.99) * 1e3,
                       {{"tenants", static_cast<double>(tenants.size())},
                        {"delta", static_cast<double>(s.delta)},
                        {"models_built_per_epoch", per_epoch},
                        {"model_build_errors", static_cast<double>(s.model_build_errors)},
                        {"price_steps_read_per_epoch",
                         static_cast<double>(s.price_steps) /
                             static_cast<double>(s.epoch_s.size())},
                        {"price_steps_errors", static_cast<double>(s.price_steps_errors)},
                        {"divergence", static_cast<double>(s.divergence)}}});
  }
  const ServiceStats stats = service.stats();
  std::printf("service:  %llu re-plans | table hits %llu / misses %llu | "
              "replan p50 %.3f ms p99 %.3f ms\n",
              static_cast<unsigned long long>(stats.replan_count),
              static_cast<unsigned long long>(stats.replan_table_hits),
              static_cast<unsigned long long>(stats.replan_table_misses),
              stats.replan_p50_ms, stats.replan_p99_ms);

  bench::note("acceptance gates");
  gate("exactly K candidates kept by the fill solve and the probe", kept_ok);
  gate("exact table-reuse counters on every iteration (reused = K-d, built = d)",
       counter_errors == 0);
  gate("every warm plan bit-matches the cold solve at its epoch", divergence == 0);
  gate("exact store work on every iteration (CostTableStore misses per warm re-plan = d)",
       store_miss_errors == 0);
  gate("exact expected-price work on every iteration (history steps read per warm "
       "re-plan = d)",
       price_steps_errors == 0);
  gate("exact shared model work on every epoch (failure models built across T tenants = d)",
       model_build_errors == 0);
  std::printf("  [%s] single-group-delta warm re-plan >= 5x faster than cold "
              "(p50 %.1fx)\n",
              speedup_1 >= 5.0 ? "PASS" : "FAIL", speedup_1);

  bool ok = kept_ok && counter_errors == 0 && divergence == 0 && store_miss_errors == 0 &&
            price_steps_errors == 0 && model_build_errors == 0 && speedup_1 >= 5.0;

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", check_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string baseline = buf.str();
    // Exact-equality on the deterministic counters; wall-clock fields
    // (cold_p50_ms, speedup_p50) are never compared across machines.
    for (const bench::JsonResult& r : results) {
      for (const auto& [key, value] : r.counters) {
        if (key == "cold_p50_ms" || key == "speedup_p50") continue;
        const std::optional<double> base = baseline_field(baseline, r.name, key);
        if (!base) {
          std::fprintf(stderr, "FAIL: baseline %s lacks %s for %s\n", check_path.c_str(),
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
    if (ok) bench::note("deterministic-counter check passed against " + check_path);
  }

  if (!json_path.empty()) bench::write_json(json_path, results);
  return ok ? 0 : 1;
}
