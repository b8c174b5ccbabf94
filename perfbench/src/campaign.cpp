// campaign — the paper's Fig. 5 evaluation as a throughput workload.
//
// Run i of the campaign is (app, deadline) = config i mod 16 — eight apps at a
// loose (1.5×) and a tight (1.05×) deadline — from a start point drawn from
// (seed, i). Two threads claim runs in index order until the time is
// up; every run is a full AdaptiveEngine::run, so each window is a cold
// optimize() followed by a trace replay of the window. The replay oracle is
// wrapped in a timing shim: the time from a window's history read to its
// run_window call is the window's plan latency, measured from outside.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "core/adaptive.h"
#include "fixture.h"
#include "sim/replay.h"
#include "workloads.h"

namespace perfbench {

using namespace sompi;

namespace {

constexpr double kMarketDays = 14.0;
/// Two of the reference box's four cores, leaving the others to the process's
/// main thread, its caller and the OS; four threads track the host's speed
/// no more steadily (README.md).
constexpr std::size_t kThreads = 2;
/// The evaluation set: the first kScoredRuns runs, 32 start points per
/// (app, deadline) spread evenly over the market at offsets fixed by
/// kEvaluationSeed. Always completed, whatever the time budget; the cost and
/// deadline-miss figures are taken over it, so they are the same for every
/// benchmark seed and move only when the plans do. The benchmark seed jitters
/// the start points of every later run.
constexpr std::size_t kScoredRuns = 512;
constexpr std::uint64_t kEvaluationSeed = 0xF165;
/// Runs re-executed on one thread for the determinism check.
constexpr std::size_t kDigestRuns = 16;
/// Runs executed twice on one thread, spans off and on, for the tracing
/// overhead: four per (app, deadline), two of them traced first.
constexpr std::size_t kOverheadRuns = 64;
/// Window plans finished in the first seconds are not measured: with more
/// than one thread, the first few seconds plan a third slower than the rest.
constexpr double kWarmupS = 4.0;
/// Throughput and latency are summarized over intervals of this length
/// (long enough for a p99 with ten window plans above it).
constexpr double kIntervalS = 5.0;

struct Config {
  AppProfile app;
  double deadline_h = 0.0;
  double baseline_usd = 0.0;
  bool tight = false;
};

struct Fixture {
  World world;
  AdaptiveConfig adaptive;
  std::unique_ptr<AdaptiveEngine> engine;
  std::vector<Config> configs;

  Fixture() : world(kMarketDays) {
    engine = std::make_unique<AdaptiveEngine>(&world.catalog, &world.estimator, adaptive);
    for (const AppProfile& app : evaluation_apps()) {
      for (const bool tight : {false, true}) {
        Config c;
        c.app = app;
        c.deadline_h = baseline_hours(world, app) * (tight ? 1.05 : 1.5);
        c.baseline_usd = baseline_cost(world, app);
        c.tight = tight;
        configs.push_back(c);
      }
    }
  }

  /// Start hour of run `index`, over the hours that leave the lookback
  /// behind it and twice the deadline of market ahead. Stratified: within
  /// each block of kScoredRuns runs, config c's k-th run starts in the k-th
  /// of kScoredRuns / 16 equal slices of that range, at a random offset, so
  /// every block covers the whole market.
  double start_for(std::uint64_t seed, std::size_t index) const {
    const Config& c = configs[index % configs.size()];
    const std::size_t slices = kScoredRuns / configs.size();
    const std::size_t slice = (index / configs.size()) % slices;
    const double market_h = kMarketDays * 24.0;
    const double lo = adaptive.lookback_h;
    const double hi = std::max(lo, market_h - 2.0 * c.deadline_h);
    std::mt19937_64 rng(mix64(index < kScoredRuns ? kEvaluationSeed : seed, index));
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const double h = lo + (hi - lo) * (static_cast<double>(slice) + u) /
                              static_cast<double>(slices);
    return std::floor(h * 4.0) / 4.0;  // on a 15-minute market step
  }
};

/// Per-run measurements taken by the oracle shim.
struct RunTiming {
  std::vector<double> plan_s;  ///< per window: history read → plan ready
  std::vector<Clock::time_point> planned_at;  ///< when each plan was ready
  double replay_s = 0.0;
  double history_s = 0.0;
  int windows = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t tuples_pruned = 0;
  std::string first_plan;  ///< fingerprint of the first window's plan
};

class TimedOracle final : public ExecutionOracle {
 public:
  TimedOracle(const Market* market, RunTiming* timing) : inner_(market), timing_(timing) {}

  WindowOutcome run_window(const Plan& plan, double start_h, double window_h) override {
    close_plan();
    if (timing_->first_plan.empty()) timing_->first_plan = plan_fingerprint(plan);
    timing_->evaluations += plan.stats.evaluations;
    timing_->tuples_pruned += plan.stats.tuples_pruned;
    ++timing_->windows;
    ScopedSpan span("sim.replay");
    const auto t0 = Clock::now();
    WindowOutcome out = inner_.run_window(plan, start_h, window_h);
    timing_->replay_s += seconds_since(t0);
    return out;
  }

  Market history_at(double now_h, double lookback_h) override {
    close_plan();
    Market history = [&] {
      ScopedSpan span("sim.history");
      const auto t0 = Clock::now();
      Market m = inner_.history_at(now_h, lookback_h);
      timing_->history_s += seconds_since(t0);
      return m;
    }();
    planning_ = true;
    plan_from_ = Clock::now();
    return history;
  }

  /// Ends the open plan interval (the engine returned without replaying it,
  /// e.g. an on-demand-only plan).
  void close_plan() {
    if (!planning_) return;
    const auto now = Clock::now();
    timing_->plan_s.push_back(seconds_between(plan_from_, now));
    timing_->planned_at.push_back(now);
    planning_ = false;
  }

 private:
  MarketReplayOracle inner_;
  RunTiming* timing_;
  bool planning_ = false;
  Clock::time_point plan_from_;
};

struct RunResult {
  bool ran = false;  ///< false for an index claimed after the deadline
  bool ok = false;
  AdaptiveResult result;
  RunTiming timing;
};

RunResult execute(const Fixture& fx, std::uint64_t seed, std::size_t index,
                  std::uint64_t request_id) {
  const Config& c = fx.configs[index % fx.configs.size()];
  RunResult out;
  out.ran = true;
  TimedOracle oracle(&fx.world.market, &out.timing);
  try {
    ScopedSpan span("core.run", request_id);
    out.result = fx.engine->run(c.app, oracle, fx.start_for(seed, index), c.deadline_h);
    oracle.close_plan();
    out.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign run %zu failed: %s\n", index, e.what());
  }
  return out;
}

std::uint64_t run_digest(const RunResult& r) {
  return mix64(std::bit_cast<std::uint64_t>(r.result.cost_usd),
               std::bit_cast<std::uint64_t>(r.result.hours));
}

/// Claims run indices from `next` on `threads` threads, starting at `t0`,
/// until the deadline passes and at least `min_runs` have been claimed.
std::vector<RunResult> run_pool(const Fixture& fx, std::uint64_t seed, std::size_t threads,
                                std::size_t min_runs, Clock::time_point t0,
                                Clock::time_point deadline, double* elapsed_s) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<RunResult> results;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= min_runs && Clock::now() >= deadline) return;
        RunResult r = execute(fx, seed, i, i + 1);
        std::lock_guard<std::mutex> lock(mutex);
        if (results.size() <= i) results.resize(i + 1);
        results[i] = std::move(r);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  *elapsed_s = seconds_since(t0);
  return results;
}

}  // namespace

Report run_campaign(const Options& opt) {
  Report report;
  double setup_s = 0.0;
  const auto fx =
      repeated_setup(31, &setup_s, [] { return std::make_unique<Fixture>(); });
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kThreads);

  // Untraced measurement (the whole time, or the first half of a traced run).
  const double untraced_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  double elapsed_s = 0.0;
  const auto t0 = Clock::now();
  std::vector<RunResult> runs =
      run_pool(*fx, opt.seed, threads, kScoredRuns, t0,
               t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(untraced_s)),
               &elapsed_s);
  const double rss_mb = peak_rss_mb();

  const Clock::time_point measured_from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(std::min(kWarmupS, untraced_s / 2.0)));
  IntervalSeries plans(measured_from, kIntervalS);
  std::vector<double> plan_s;  // every window plan latency after the warm-up
  for (const RunResult& r : runs) {
    if (!r.ran) continue;
    ++report.attempted;
    if (!r.ok) ++report.failed;
    for (std::size_t k = 0; k < r.timing.plan_s.size(); ++k) {
      if (r.timing.planned_at[k] < measured_from) continue;
      plans.add(r.timing.planned_at[k], r.timing.plan_s[k]);
      plan_s.push_back(r.timing.plan_s[k]);
    }
  }

  // Seed-determined quality figures over the first kScoredRuns runs.
  double ratio_sum = 0.0;
  std::size_t misses = 0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < std::min(kScoredRuns, runs.size()); ++i) {
    if (!runs[i].ok) continue;
    ratio_sum += runs[i].result.cost_usd / fx->configs[i % fx->configs.size()].baseline_usd;
    misses += runs[i].result.met_deadline ? 0 : 1;
    ++scored;
  }
  const double cost_ratio = scored ? ratio_sum / static_cast<double>(scored) : 0.0;
  const double miss_ratio = scored ? static_cast<double>(misses) / static_cast<double>(scored) : 0.0;
  const double runs_per_s = static_cast<double>(report.attempted) / elapsed_s;

  report.info("campaign: " + std::to_string(report.attempted) + " adaptive runs on " +
              std::to_string(threads) + " threads in " + std::to_string(elapsed_s) + " s, " +
              std::to_string(plans.samples().size()) + " window plans measured after a " +
              std::to_string(std::min(kWarmupS, untraced_s / 2.0)) + " s warm-up");
  report.info(latency_line("window plan latency", plans.samples()));
  // plan_p50_ms is the time-weighted median: half of the run's planning time
  // goes to windows at most this long. The plain median is no use here: the
  // window latencies are bimodal (five loose-deadline configurations solve in
  // 10-35 ms, the other eleven in 1-4 ms) and their median lies on the steep
  // edge between the modes, where a few percent more windows of one kind
  // move it by half. The time-weighted median lies inside the slow mode,
  // where the planning time goes.
  std::sort(plan_s.begin(), plan_s.end());
  const double half_s = total(plan_s) / 2.0;
  double below_s = 0.0, weighted_p50_s = 0.0;
  for (const double s : plan_s) {
    weighted_p50_s = s;
    below_s += s;
    if (below_s >= half_s) break;
  }
  report.info("time-weighted median window plan latency " + std::to_string(weighted_p50_s * 1e3) +
              " ms (" + std::to_string(plan_s.size()) + " windows, " +
              std::to_string(total(plan_s)) + " s of planning)");
  report.info(interval_line(plans));
  report.info("runs_per_s " + std::to_string(runs_per_s) + " runs/s");
  report.info("deadline_miss_ratio " + std::to_string(misses) + " / " + std::to_string(scored) +
              " runs");
  report.info("plan_cost_ratio (mean cost / Baseline over " + std::to_string(scored) +
              " runs) " + std::to_string(cost_ratio));
  report.info("fail_ratio " + std::to_string(report.failed) + " / " +
              std::to_string(report.attempted));

  // --- output checks -------------------------------------------------------
  report.check(scored == kScoredRuns,
               "the first " + std::to_string(kScoredRuns) + " runs completed");
  // Determinism: the first runs again on ONE thread must reproduce every
  // run's cost and time bits.
  {
    std::uint64_t multi = 0, single = 0;
    for (std::size_t i = 0; i < std::min(kDigestRuns, runs.size()); ++i) {
      multi = mix64(multi, run_digest(runs[i]));
      single = mix64(single, run_digest(execute(*fx, opt.seed, i, 0)));
    }
    report.check(multi == single, "run digest identical at 1 and " + std::to_string(threads) +
                                      " threads (" + std::to_string(kDigestRuns) + " runs)");
  }
  // Decomposed first-window solves: setup_for per group + optimize_over must
  // reproduce the plan the engine executed, bit for bit.
  std::vector<double> setup_s_samples, search_s_samples;
  {
    const SompiOptimizer optimizer(&fx->world.catalog, &fx->world.estimator, fx->adaptive.opt);
    std::size_t mismatches = 0, compared = 0;
    for (std::size_t i = 0; i < std::min(kDigestRuns, runs.size()); ++i) {
      if (runs[i].timing.first_plan.empty()) continue;
      const Config& c = fx->configs[i % fx->configs.size()];
      MarketReplayOracle oracle(&fx->world.market);
      const Market history =
          oracle.history_at(fx->start_for(opt.seed, i), fx->adaptive.lookback_h);
      PlanRequest req;
      req.app = scale_profile(c.app, 1.0);
      req.deadline_h = c.deadline_h;
      const DecomposedSolve d = decomposed_solve(fx->world, optimizer, req, history);
      setup_s_samples.push_back(d.setup_s);
      search_s_samples.push_back(d.search_s);
      ++compared;
      if (plan_fingerprint(d.plan) != runs[i].timing.first_plan) ++mismatches;
    }
    report.check(compared > 0 && mismatches == 0,
                 "decomposed first-window solve matches the executed plan (" +
                     std::to_string(compared) + " runs)");
  }

  report.end_to_end("setup_s", setup_s);
  report.end_to_end("peak_rss_mb", rss_mb);
  report.end_to_end("plans_per_s", plans.median_rate());
  report.end_to_end("plan_p50_ms", weighted_p50_s * 1e3);
  report.end_to_end("plan_p99_ms", plans.median_percentile(0.99) * 1e3);
  report.end_to_end("plan_cost_ratio", cost_ratio);

  if (!opt.trace) return report;

  // --- tracing overhead: the same runs on one thread, spans off and on,
  // taking turns at going first; their spans are discarded ---------------
  double plain_s = 0.0, spanned_s = 0.0;
  for (std::size_t i = 0; i < kOverheadRuns; ++i) {
    const bool traced_first = (i / fx->configs.size()) % 2 == 1;
    for (const bool on : {traced_first, !traced_first}) {
      spans::set_enabled(on);
      const auto t = Clock::now();
      (void)execute(*fx, opt.seed, i, i + 1);
      (on ? spanned_s : plain_s) += seconds_since(t);
    }
  }
  spans::set_enabled(false);
  (void)spans::take();

  // --- traced half: same pool, spans on ----------------------------------
  spans::set_enabled(true);
  double traced_elapsed_s = 0.0;
  const auto traced_t0 = Clock::now();
  std::vector<RunResult> traced =
      run_pool(*fx, opt.seed, threads, 1, traced_t0,
               traced_t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds / 2.0)),
               &traced_elapsed_s);
  spans::set_enabled(false);
  const std::vector<Span> all = spans::take();
  write_spans(opt.out_dir + "/spans_campaign.csv", all);

  RunTiming sum;
  std::size_t traced_runs = 0;
  for (const RunResult& r : traced) {
    if (!r.ran) continue;
    ++traced_runs;
    sum.windows += r.timing.windows;
    sum.replay_s += r.timing.replay_s;
    sum.history_s += r.timing.history_s;
    sum.evaluations += r.timing.evaluations;
    sum.tuples_pruned += r.timing.tuples_pruned;
  }
  const auto by_name = self_time_by_name(all);
  auto layers = self_time_by_layer(all);
  const double windows_d = std::max(1, sum.windows);

  report.layer("tracing.overhead_pct", (spanned_s / plain_s - 1.0) * 100.0);
  report.layer("core.solve_ms", by_name.at("core.run") / windows_d * 1e3);
  report.layer("core.setup_ms", mean(setup_s_samples) * 1e3);
  report.layer("core.search_ms", mean(search_s_samples) * 1e3);
  report.layer("core.evaluations", static_cast<double>(sum.evaluations) / windows_d);
  report.layer("core.tuples_pruned", static_cast<double>(sum.tuples_pruned) / windows_d);
  report.layer("core.prune_ratio",
               static_cast<double>(sum.tuples_pruned) /
                   std::max(1.0, static_cast<double>(sum.tuples_pruned + sum.evaluations)));
  report.layer("sim.replay_ms", sum.replay_s / windows_d * 1e3);
  report.layer("sim.history_ms", sum.history_s / windows_d * 1e3);
  report.layer("sim.windows_per_run",
               windows_d / std::max<double>(1.0, static_cast<double>(traced_runs)));
  report.layer("sim.runs_per_s", runs_per_s);
  report.layer("sim.deadline_miss_ratio", miss_ratio);
  report.layer("trace.history_steps",
               static_cast<double>(fx->world.market.trace({0, 0}).steps()));
  report_layer_shares(report, layers);
  report.info("traced: " + std::to_string(traced_runs) + " runs in " +
              std::to_string(traced_elapsed_s) + " s, " +
              std::to_string(all.size()) + " spans (" + std::to_string(spans::dropped()) +
              " dropped)");
  return report;
}

}  // namespace perfbench
