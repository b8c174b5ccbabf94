// Wire-serving overhead and equivalence: the RPC front end vs the in-process
// tier (DESIGN.md §15, ISSUE 10).
//
//   $ ./bench_wire [--iters N=1000] [--batch B=32] [--json <path>]
//                  [--check <baseline.json>]
//
// For shards ∈ {1, 8}: a router-aware PlanClient drives a PlanServerLoop
// through a scripted request stream (distinct deadlines, repeats, a
// mid-stream epoch bump) while a 1-shard in-process oracle serves the
// identical stream — every plan that crosses the wire must be
// fingerprint-byte-identical to the oracle's (wire_divergence == 0). A
// second, spray-mode client replays the distinct keys to measure the
// misroute tax: the routed client's tier forwarding counter must be exactly
// 0, the spray client's exactly the locally computed misroute count.
//
// The latency half measures warm-hit batches (every key cached) through both
// front doors: the wire client's async submit/drain/harvest and an
// AsyncBatchService on the same tier. Acceptance gates: zero divergence at
// both shard counts, routed forwards == 0, spray forwards exact and > 0,
// and warm-hit wire p50 ≤ 1.5× the in-process batch p50 (per request,
// amortized over the batch). --check compares the deterministic counters
// (requests, solves, hits, divergence, forwards, rejects, and the bytes the
// scripted stream put on the wire in each direction) against the committed
// baseline (bench/BENCH_wire.json) exact-equality; wall-clock numbers are
// printed and gated in-process but never compared across machines.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "service/sharded/batch.h"
#include "service/sharded/sharded_service.h"

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

ServiceConfig fast_config() {
  ServiceConfig c;
  c.cache = {.shards = 4, .capacity = 64};
  c.max_concurrent_solves = 2;
  c.max_queued_solves = 256;
  c.opt.max_candidates = 3;
  c.opt.max_groups = 2;
  c.opt.setup.log_levels = 3;
  c.opt.setup.failure.samples = 400;
  c.opt.ratio_bins = 32;
  return c;
}

ShardedConfig tier_config(std::size_t shards) {
  ShardedConfig c;
  c.shards = shards;
  c.vnodes = 32;
  c.salt = 0xD15EA5EULL;
  c.service = fast_config();
  return c;
}

struct ShardRun {
  std::size_t shards = 0;
  std::uint64_t requests = 0;
  std::uint64_t divergence = 0;        ///< wire plans != oracle plans, bytes
  std::uint64_t routed_forwards = 0;   ///< must be exactly 0
  std::uint64_t spray_forwards = 0;    ///< measured on the spray client
  std::uint64_t spray_expected = 0;    ///< locally computed misroute count
  std::uint64_t solves = 0;
  std::uint64_t hits = 0;
  std::uint64_t duplicate_solves = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t wire_errors = 0;
  /// Frame bytes of the scripted stream, as each side's decoder consumed
  /// them: fixed by the wire layout alone.
  std::uint64_t bytes_to_server = 0;
  std::uint64_t bytes_to_client = 0;
  std::vector<double> wire_s;    ///< per-request warm-hit seconds, wire batch
  std::vector<double> inproc_s;  ///< same, through AsyncBatchService
};

}  // namespace

int main(int argc, char** argv) {
  int iters = 1000;
  std::size_t batch_size = 32;
  std::string check_path;
  const std::string json_path = bench::json_path_from_args(argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0) iters = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--batch") == 0)
      batch_size = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    if (std::strcmp(argv[i], "--check") == 0) check_path = argv[i + 1];
  }

  bench::banner("WIRE", "RPC front end vs in-process tier: equivalence and warm-hit overhead");

  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  Market market = generate_market(catalog, paper_market_profile(catalog), /*days=*/3.0,
                                  /*step_hours=*/0.25, /*seed=*/2015);
  const double baseline_h =
      OnDemandSelector(&catalog, &est).baseline(paper_profile("BT")).t_h;
  const auto request = [&](double factor) {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h * factor;
    return r;
  };
  const std::vector<double> distinct = {1.30, 1.45, 1.60, 1.75};
  // Distinct keys, repeats for hits, then the same again across an epoch
  // bump (requests 8.. re-solve at epoch 2).
  const std::vector<double> stream = {1.30, 1.45, 1.60, 1.75, 1.30, 1.60, 1.45, 1.75,
                                      1.30, 1.45, 1.60, 1.75, 1.75, 1.30};

  std::vector<ShardRun> runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    ShardRun run;
    run.shards = shards;

    // --- Equivalence: routed client vs in-process oracle, across a bump ---
    ShardedPlanService oracle(&catalog, &est, market, tier_config(1));
    ShardedPlanService tier(&catalog, &est, market, tier_config(shards));
    net::PlanServerLoop server(&tier, {});
    net::PlanClient client(&server, net::ClientMode::kRouted);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (i == 8) {
        const std::vector<PriceUpdate> bump = {PriceUpdate{{0, 0}, {0.021, 0.027}}};
        oracle.fanout().ingest(bump);
        tier.fanout().ingest(bump);
      }
      const PlanResponse got = client.plan(request(stream[i]));
      const PlanResponse want = oracle.serve(request(stream[i]));
      ++run.requests;
      if (got.plan == nullptr || want.plan == nullptr ||
          plan_fingerprint(*got.plan) != plan_fingerprint(*want.plan) ||
          got.epoch != want.epoch)
        ++run.divergence;
    }
    {
      const net::WireTierStats stats = server.stats();
      run.routed_forwards = stats.forwarded;
      run.solves = stats.solves;
      run.hits = stats.hits;
      run.duplicate_solves = stats.duplicate_solves;
      run.frames_rejected = stats.frames_rejected;
      run.wire_errors = stats.wire_errors;
      run.bytes_to_server = server.codec_stats().bytes_consumed;
      run.bytes_to_client = client.codec_stats().bytes_consumed;
    }

    // --- Warm-hit latency: every stream key is cached at the live epoch ---
    // Per iteration, one batch of `batch_size` requests through each front
    // door; the per-request amortized time is what a serving deployment
    // pays per plan at steady state.
    std::vector<PlanRequest> warm;
    for (std::size_t i = 0; i < batch_size; ++i)
      warm.push_back(request(distinct[i % distinct.size()]));
    AsyncBatchService inproc(&tier, {.workers = 4, .queue_capacity = 256});
    // Interleaved and paired: each iteration times one batch through each
    // front door back to back, so drift (frequency scaling, noisy
    // neighbours) hits both sides alike; the first `warmup` pairs prime
    // caches and thread pools and are not recorded.
    const int warmup = 5;
    for (int it = -warmup; it < iters; ++it) {
      const auto t_wire = Clock::now();
      (void)client.submit_batch(warm);
      client.drain();
      const std::size_t wire_done = client.harvest().size();
      const double wire_s = seconds_since(t_wire) / static_cast<double>(batch_size);

      const auto t_inproc = Clock::now();
      (void)inproc.submit_batch(warm);
      inproc.drain();
      const std::size_t inproc_done = inproc.harvest().size();
      const double inproc_s = seconds_since(t_inproc) / static_cast<double>(batch_size);

      if (wire_done != batch_size || inproc_done != batch_size) ++run.divergence;
      if (it < 0) continue;
      run.wire_s.push_back(wire_s);
      run.inproc_s.push_back(inproc_s);
    }
    inproc.stop();

    // --- Misroute tax: a spray client on a fresh identical tier ----------
    ShardedPlanService spray_tier(&catalog, &est, market, tier_config(shards));
    net::PlanServerLoop spray_server(&spray_tier, {});
    net::PlanClient spray(&spray_server, net::ClientMode::kSpray);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      if (spray_tier.home_shard(request(distinct[i])) != i % shards) ++run.spray_expected;
      const PlanResponse got = spray.plan(request(distinct[i]));
      if (got.plan == nullptr) ++run.divergence;
    }
    run.spray_forwards = spray_server.stats().forwarded;

    runs.push_back(std::move(run));
  }

  // --- Report ---------------------------------------------------------------
  const auto p50 = [](const std::vector<double>& v) {
    return bench::percentile_nearest_rank(v, 0.50);
  };
  // The overhead gate uses the MEDIAN PAIRED ratio — wire/inproc within
  // each iteration — so a drift that shifts whole runs (both sides alike)
  // cancels instead of polluting the comparison.
  const auto paired_ratio = [&](const ShardRun& run) {
    std::vector<double> ratios;
    ratios.reserve(run.wire_s.size());
    for (std::size_t i = 0; i < run.wire_s.size() && i < run.inproc_s.size(); ++i)
      if (run.inproc_s[i] > 0.0) ratios.push_back(run.wire_s[i] / run.inproc_s[i]);
    return ratios.empty() ? 0.0 : p50(ratios);
  };
  bool ok = true;
  std::vector<bench::JsonResult> results;
  for (const ShardRun& run : runs) {
    const double wire_ms = p50(run.wire_s) * 1e3;
    const double inproc_ms = p50(run.inproc_s) * 1e3;
    const double ratio = paired_ratio(run);
    std::printf("shards %zu: wire warm-hit p50 %8.4f ms/req | in-process %8.4f ms/req"
                " | %.2fx | forwards routed %llu spray %llu/%llu | divergence %llu\n",
                run.shards, wire_ms, inproc_ms, ratio,
                static_cast<unsigned long long>(run.routed_forwards),
                static_cast<unsigned long long>(run.spray_forwards),
                static_cast<unsigned long long>(run.spray_expected),
                static_cast<unsigned long long>(run.divergence));

    const bool shard_ok = run.divergence == 0 && run.routed_forwards == 0 &&
                          run.spray_forwards == run.spray_expected &&
                          run.frames_rejected == 0 && run.wire_errors == 0 &&
                          ratio <= 1.5;
    ok = ok && shard_ok;

    const double wire_mean_ms =
        std::accumulate(run.wire_s.begin(), run.wire_s.end(), 0.0) /
        static_cast<double>(run.wire_s.size()) * 1e3;
    results.push_back(
        {"wire_shards_" + std::to_string(run.shards), run.wire_s.size(), wire_mean_ms,
         wire_ms, bench::percentile_nearest_rank(run.wire_s, 0.99) * 1e3,
         {{"requests", static_cast<double>(run.requests)},
          {"divergence", static_cast<double>(run.divergence)},
          {"routed_forwards", static_cast<double>(run.routed_forwards)},
          {"spray_forwards", static_cast<double>(run.spray_forwards)},
          {"solves", static_cast<double>(run.solves)},
          {"hits", static_cast<double>(run.hits)},
          {"duplicate_solves", static_cast<double>(run.duplicate_solves)},
          {"frames_rejected", static_cast<double>(run.frames_rejected)},
          {"wire_errors", static_cast<double>(run.wire_errors)},
          {"bytes_to_server", static_cast<double>(run.bytes_to_server)},
          {"bytes_to_client", static_cast<double>(run.bytes_to_client)},
          {"inproc_p50_ms", inproc_ms},
          {"wire_over_inproc", ratio}}});
  }

  bench::note("acceptance gates");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ShardRun& run = runs[i];
    std::printf("  --- shards = %zu ---\n", run.shards);
    gate("every wire-served plan is fingerprint-byte-identical to the oracle",
         run.divergence == 0);
    gate("router-aware client: tier forwarding counter is exactly 0",
         run.routed_forwards == 0);
    gate("spray client: forwarding counter equals the computed misroute count",
         run.spray_forwards == run.spray_expected &&
             (run.shards == 1 || run.spray_expected > 0));
    gate("zero codec rejects and zero wire errors on a clean stream",
         run.frames_rejected == 0 && run.wire_errors == 0);
    const double ratio = paired_ratio(run);
    std::printf("  [%s] warm-hit wire <= 1.5x in-process batch (median paired, %.2fx)\n",
                ratio <= 1.5 ? "PASS" : "FAIL", ratio);
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
    // Exact-equality on the deterministic counters; wall-clock fields are
    // never compared across machines.
    for (const bench::JsonResult& r : results) {
      for (const auto& [key, value] : r.counters) {
        if (key == "inproc_p50_ms" || key == "wire_over_inproc") continue;
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
