// epoch_churn — market writes beside reads.
//
// Each epoch the generator offers one publication's worth of seeded
// SyntheticTickSource ticks (FeedConfig::publish_every steps) for a rotating
// subset of kHot hot groups to a FeedPipeline in replicated mode over the
// tier's BoardFanout, then flushes: the silent groups' columns are withheld
// and exactly one epoch is published to all 4 shard replicas. As soon as it
// is, the fixed tenants re-request their plans over the wire; the next epoch
// starts once all have answered. Every request therefore misses and
// re-plans warm from the shard's CostTableStore with only the hot groups
// dirty. epoch_to_plan is timed from the start of the publication to each
// tenant's new plan.
//
// The traced run also mirrors every epoch in-process: each tenant's warm
// re-plan through a shadow CostTableStore, split into setup and search, and
// the epoch's columns ingested into a twin replica set (BoardFanout::ingest,
// 4 replicas). Two mirrors take the same epochs, one with spans off and one
// with spans on, for the tracing overhead.
#include <algorithm>
#include <cstdio>

#include "feed/pipeline.h"
#include "feed/tick_source.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

using namespace sompi;

namespace {

constexpr double kMarketDays = 28.0;
/// Dirty groups per epoch: bench_replan's middle delta (K/2 of its K = 8
/// kept candidates).
constexpr std::size_t kHot = 4;
/// Epochs whose plans enter plan_cost_ratio; always run, so the figure
/// depends on the seed alone.
constexpr std::size_t kScoredEpochs = 8;
constexpr std::size_t kSampleEveryEpochs = 5;
constexpr std::size_t kMaxSamples = 32;

/// bench_replan's optimizer settings (K = 8 kept candidates).
OptimizerConfig churn_optimizer() {
  OptimizerConfig c;
  c.max_candidates = 8;
  c.max_groups = 2;
  c.setup.log_levels = 2;
  c.setup.failure.samples = 200;
  c.ratio_bins = 16;
  return c;
}

/// The eight evaluation apps at the paper's loose (1.5×) and tight (1.05×)
/// deadlines: 16 tenants, bench_service_load's burst at a fresh epoch.
std::vector<PlanRequest> tenants(const World& world) {
  std::vector<PlanRequest> out;
  for (const AppProfile& app : evaluation_apps()) {
    for (const double factor : {1.5, 1.05}) {
      PlanRequest r;
      r.app = app;
      r.deadline_h = baseline_hours(world, app) * factor;
      out.push_back(canonicalized(r));
    }
  }
  return out;
}

struct Fixture {
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<feed::FeedPipeline> feed;
  std::vector<PlanRequest> tenants;
  std::vector<CircleGroupSpec> groups;
};

std::unique_ptr<Fixture> build(Report* report) {
  auto fx = std::make_unique<Fixture>();
  fx->stack = std::make_unique<ServingStack>(kMarketDays, churn_optimizer());
  fx->feed = std::make_unique<feed::FeedPipeline>(&fx->stack->tier->fanout(), feed::FeedConfig{});
  fx->tenants = tenants(*fx->stack->world);
  fx->groups = fx->stack->world->catalog.all_groups();
  // Fill: every tenant's first, cold solve.
  WireDriver driver(fx->stack->client.get());
  driver.submit_batch(fx->tenants, 0, Clock::now());
  for (const Completion& c : driver.finish())
    if (!c.ok()) report->check(false, "fill: every tenant solved");
  return fx;
}

struct Sample {
  PlanRequest request;
  std::shared_ptr<const Market> market;  ///< the board's market at the plan's epoch
  std::string fingerprint;
};

/// The re-plan side of the epochs, in-process: shadow warm re-planning (the
/// PlanService warm path through public calls) and a twin 4-replica set.
struct Mirror {
  CostTableStore store;
  std::vector<std::unique_ptr<MarketBoard>> boards;
  std::unique_ptr<BoardFanout> fanout;
  std::vector<double> setup_s, search_s, ingest_s;
  double work_s = 0.0;  ///< wall time of every mirrored epoch
  std::uint64_t mismatches = 0;

  /// Primes the shadow store with every tenant's plan at `snap`.
  Mirror(const World& world, const SompiOptimizer& optimizer,
         const std::vector<PlanRequest>& tenants, const MarketSnapshot& snap) {
    std::vector<MarketBoard*> raw;
    for (int i = 0; i < 4; ++i) {
      boards.push_back(std::make_unique<MarketBoard>(*snap.market));
      raw.push_back(boards.back().get());
    }
    fanout = std::make_unique<BoardFanout>(raw);
    for (const PlanRequest& t : tenants) {
      ReplanContext ctx{&store, canonical_key(t), snap.versions, nullptr};
      const DecomposedSolve d = decomposed_solve(world, optimizer, t, *snap.market, &ctx);
      store.note_plan(ctx.scope, std::make_shared<const Plan>(d.plan));
    }
  }

  /// Repeats one epoch: every answered tenant's warm re-plan (which must
  /// equal the served plan), then the ingest of the epoch's columns.
  void epoch(const World& world, const SompiOptimizer& optimizer,
             const std::vector<PlanRequest>& tenants, const MarketSnapshot& snap,
             const std::vector<Completion>& done, const std::vector<PriceUpdate>& updates) {
    const auto t0 = Clock::now();
    for (const Completion& c : done) {
      if (!c.ok()) continue;
      // This tenant's scope, the snapshot's group versions, the previous
      // plan as incumbent.
      ScopedSpan span("core.warm_replan", c.wire.request_id);
      ReplanContext ctx;
      ctx.store = &store;
      ctx.scope = canonical_key(tenants[c.tag]);
      ctx.versions = snap.versions;
      ctx.incumbent = store.last_plan(ctx.scope);
      const DecomposedSolve d =
          decomposed_solve(world, optimizer, tenants[c.tag], *snap.market, &ctx);
      store.note_plan(ctx.scope, std::make_shared<const Plan>(d.plan));
      setup_s.push_back(d.setup_s);
      search_s.push_back(d.search_s);
      if (plan_fingerprint(d.plan) != plan_fingerprint(*c.wire.response.plan)) ++mismatches;
    }
    {
      ScopedSpan span("sharded.fanout_ingest");
      const auto t = Clock::now();
      fanout->ingest(updates);
      ingest_s.push_back(seconds_since(t));
    }
    work_s += seconds_since(t0);
  }
};

/// Throughput and latency are summarized over kIntervalS intervals.
constexpr double kIntervalS = 1.0;

struct LoopResult {
  explicit LoopResult(Clock::time_point start) : epoch_to_plan(start, kIntervalS) {}
  IntervalSeries epoch_to_plan;
  double offer_s = 0.0;           ///< summed over ticks
  std::vector<double> publish_s;  ///< per epoch
  std::uint64_t ticks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale = 0;  ///< responses not at the just-published epoch
  double cost_ratio_sum = 0.0;
  std::size_t cost_ratio_n = 0;
  double elapsed_s = 0.0;
};

/// Runs epochs for `seconds` (and at least `min_epochs`). With mirrors, the
/// run is traced: spans are on, and after each epoch's timed part both
/// mirrors repeat it, `plain` with spans off and `spanned` with spans on,
/// taking turns at going first.
LoopResult churn(Fixture& fx, std::uint64_t seed, std::uint64_t* epoch_index, double seconds,
                 std::size_t min_epochs, std::vector<Sample>* samples, Mirror* plain,
                 Mirror* spanned) {
  World& world = *fx.stack->world;
  ShardedPlanService& tier = *fx.stack->tier;
  const SompiOptimizer optimizer(&world.catalog, &world.estimator, churn_optimizer());
  const std::size_t steps_per_epoch = feed::FeedConfig{}.publish_every;
  const bool traced = spanned != nullptr;
  spans::set_enabled(traced);
  WireDriver driver(fx.stack->client.get());
  const auto t0 = Clock::now();
  LoopResult out(t0);
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (out.epochs < min_epochs || Clock::now() < end) {
    const std::uint64_t e = (*epoch_index)++;
    std::vector<CircleGroupSpec> hot;
    for (std::size_t i = 0; i < kHot; ++i)
      hot.push_back(fx.groups[(e * kHot + i) % fx.groups.size()]);
    feed::SyntheticTickSource::Config source_config;
    source_config.seed = mix64(seed, e);
    source_config.start_step = fx.feed->frontier_step();
    source_config.steps = steps_per_epoch;
    feed::SyntheticTickSource source(&world.catalog, hot, source_config);
    {
      ScopedSpan span("feed.offer");
      while (const std::optional<feed::Tick> tick = source.next()) {
        const auto t = Clock::now();
        fx.feed->offer(*tick);
        out.offer_s += seconds_since(t);
        ++out.ticks;
      }
    }
    const auto published_from = Clock::now();
    {
      ScopedSpan span("feed.publish");
      fx.feed->flush();
    }
    out.publish_s.push_back(seconds_since(published_from));
    const MarketSnapshot snap = tier.board(0).snapshot();
    ++out.epochs;

    driver.submit_batch(fx.tenants, 0, published_from);
    const std::vector<Completion> done = driver.finish();

    const bool sample_epoch =
        samples != nullptr && e % kSampleEveryEpochs == 0 && samples->size() < kMaxSamples;
    for (const Completion& c : done) {
      ++out.attempted;
      if (!c.ok()) {
        ++out.failed;
        continue;
      }
      out.epoch_to_plan.add(c.done, c.latency_s);
      const PlanResponse& r = c.wire.response;
      if (r.epoch != snap.epoch) ++out.stale;
      if (out.epochs <= kScoredEpochs) {
        out.cost_ratio_sum +=
            r.plan->expected.cost_usd / baseline_cost(world, fx.tenants[c.tag].app);
        ++out.cost_ratio_n;
      }
      if (sample_epoch && c.tag == e % fx.tenants.size())
        samples->push_back({fx.tenants[c.tag], snap.market, plan_fingerprint(*r.plan)});
    }
    if (!traced) continue;
    // This epoch's published columns (the hot groups' last steps), for the
    // twin replicas.
    std::vector<PriceUpdate> updates;
    for (const CircleGroupSpec& g : hot) {
      const SpotTrace& trace = snap.market->trace(g);
      PriceUpdate u{g, {}};
      for (std::size_t s = trace.steps() - steps_per_epoch; s < trace.steps(); ++s)
        u.prices.push_back(trace.price(s));
      updates.push_back(std::move(u));
    }
    for (const bool spans_on : {e % 2 == 1, e % 2 == 0}) {
      spans::set_enabled(spans_on);
      (spans_on ? spanned : plain)->epoch(world, optimizer, fx.tenants, snap, done, updates);
    }
    spans::set_enabled(true);
  }
  spans::set_enabled(false);
  out.elapsed_s = seconds_since(t0);
  return out;
}

std::size_t longest_history(const Market& market) {
  std::size_t steps = 0;
  for (const CircleGroupSpec& g : market.catalog().all_groups())
    steps = std::max(steps, market.trace(g).steps());
  return steps;
}

}  // namespace

Report run_epoch_churn(const Options& opt) {
  Report report;
  double setup_s = 0.0;
  auto fx = repeated_setup(9, &setup_s, [&] { return build(&report); });
  std::uint64_t epoch_index = 0;
  std::vector<Sample> samples;

  const double untraced_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const CounterSnapshot before = snapshot_counters(*fx->stack);
  const feed::FeedStats feed_before = fx->feed->stats();
  const LoopResult loop =
      churn(*fx, opt.seed, &epoch_index, untraced_s, kScoredEpochs, &samples, nullptr, nullptr);
  const double rss_mb = peak_rss_mb();
  const CounterSnapshot after = snapshot_counters(*fx->stack);
  const feed::FeedStats feed_after = fx->feed->stats();
  report.attempted = loop.attempted;
  report.failed = loop.failed;

  const double cost_ratio = loop.cost_ratio_sum / std::max<double>(1.0, loop.cost_ratio_n);
  const double plans_per_s = loop.epoch_to_plan.median_rate();
  const double ticks_per_s = static_cast<double>(loop.ticks) / loop.elapsed_s;
  report.info("epoch_churn: " + std::to_string(loop.epochs) + " epochs × " +
              std::to_string(fx->tenants.size()) + " tenants in " +
              std::to_string(loop.elapsed_s) + " s; " + std::to_string(kHot) + " of " +
              std::to_string(fx->groups.size()) + " groups hot per epoch");
  report.info(latency_line("epoch_to_plan", loop.epoch_to_plan.samples()));
  report.info(interval_line(loop.epoch_to_plan));
  report.info("feed offer: " + std::to_string(loop.offer_s / std::max<double>(1.0, loop.ticks) * 1e6) +
              " us per tick (n=" + std::to_string(loop.ticks) + ")");
  report.info(latency_line("feed publish (per epoch)", loop.publish_s));
  report.info("ticks_per_s " + std::to_string(ticks_per_s) + " (" + std::to_string(loop.ticks) +
              " ticks)");
  report.info("fail_ratio " + std::to_string(loop.failed) + " / " +
              std::to_string(loop.attempted));
  report.info("plan_cost_ratio (mean expected cost / Baseline over " +
              std::to_string(loop.cost_ratio_n) + " plans of the first " +
              std::to_string(kScoredEpochs) + " epochs) " + std::to_string(cost_ratio));
  report.info("feed: " + std::to_string(feed_after.epochs_published - feed_before.epochs_published) +
              " epochs published, " +
              std::to_string(feed_after.columns_withheld - feed_before.columns_withheld) +
              " columns withheld, " +
              std::to_string(feed_after.estimates_computed - feed_before.estimates_computed) +
              " estimates computed");
  report_counters(report, before, after);

  // --- output checks -------------------------------------------------------
  report.check(feed_after.epochs_published - feed_before.epochs_published == loop.epochs,
               "one published epoch per generator epoch");
  report.check(loop.stale == 0, "every tenant's plan is at the just-published epoch");
  report.check(after.wire.replan_count - before.wire.replan_count == loop.attempted,
               "every request re-planned (replans == requests)");
  {
    ShardedPlanService& tier = *fx->stack->tier;
    std::size_t mismatches = 0;
    for (const Sample& s : samples) {
      const Plan cold = tier.shard(tier.home_shard(s.request)).solve(s.request, *s.market);
      if (plan_fingerprint(cold) != s.fingerprint) ++mismatches;
    }
    report.check(!samples.empty() && mismatches == 0,
                 "sampled warm re-plans equal a cold PlanService::solve at their epoch (" +
                     std::to_string(samples.size()) + " samples)");
  }

  report.end_to_end("setup_s", setup_s);
  report.end_to_end("peak_rss_mb", rss_mb);
  report.end_to_end("plans_per_s", plans_per_s);
  report.end_to_end("plan_p50_ms", loop.epoch_to_plan.median_percentile(0.5) * 1e3);
  report.end_to_end("plan_p99_ms", loop.epoch_to_plan.median_percentile(0.99) * 1e3);
  report.end_to_end("plan_cost_ratio", cost_ratio);

  if (!opt.trace) return report;

  // --- traced run: the epochs mirrored in-process, spans off and on --------
  const MarketSnapshot primed_at = fx->stack->tier->board(0).snapshot();
  const SompiOptimizer optimizer(&fx->stack->world->catalog, &fx->stack->world->estimator,
                                 churn_optimizer());
  Mirror plain(*fx->stack->world, optimizer, fx->tenants, primed_at);
  Mirror spanned(*fx->stack->world, optimizer, fx->tenants, primed_at);
  const CounterSnapshot traced_before = snapshot_counters(*fx->stack);
  const feed::FeedStats traced_feed_before = fx->feed->stats();
  const LoopResult traced =
      churn(*fx, opt.seed, &epoch_index, opt.seconds / 2.0, 2, nullptr, &plain, &spanned);
  const CounterSnapshot traced_after = snapshot_counters(*fx->stack);
  const feed::FeedStats traced_feed_after = fx->feed->stats();
  const std::vector<Span> all = spans::take();
  write_spans(opt.out_dir + "/spans_epoch_churn.csv", all);
  report.check(plain.mismatches == 0 && spanned.mismatches == 0,
               "mirrored warm re-plans equal the served plans (2 × " +
                   std::to_string(spanned.setup_s.size()) + " re-plans)");

  const double epochs = std::max<double>(1.0, static_cast<double>(traced.epochs));
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double requests = std::max(1.0, d(traced_before.wire.requests, traced_after.wire.requests));
  const double replans =
      std::max(1.0, d(traced_before.tier.total.replan_count, traced_after.tier.total.replan_count));
  const double table_hits = d(traced_before.tables.hits, traced_after.tables.hits);
  const double table_lookups = d(traced_before.tables.lookups(), traced_after.tables.lookups());

  report.layer("tracing.overhead_pct", (spanned.work_s / plain.work_s - 1.0) * 100.0);
  report.layer("core.setup_ms", mean(spanned.setup_s) * 1e3);
  report.layer("core.search_ms", mean(spanned.search_s) * 1e3);
  report.layer("core.evaluations",
               d(traced_before.tier.total.evaluations_performed,
                 traced_after.tier.total.evaluations_performed) / replans);
  report.layer("core.tuples_pruned",
               d(traced_before.tier.total.tuples_pruned, traced_after.tier.total.tuples_pruned) /
                   replans);
  const double pruned =
      d(traced_before.tier.total.tuples_pruned, traced_after.tier.total.tuples_pruned);
  report.layer("core.prune_ratio",
               pruned / std::max(1.0, pruned + d(traced_before.tier.total.evaluations_performed,
                                                 traced_after.tier.total.evaluations_performed)));
  report.layer("core.tables_reuse_ratio", table_hits / std::max(1.0, table_lookups));
  report.layer("core.warm_seeds",
               d(traced_before.tier.total.warm_seeds, traced_after.tier.total.warm_seeds) /
                   replans);
  report.layer("trace.history_steps",
               static_cast<double>(longest_history(*fx->stack->tier->board(0).snapshot().market)));
  report.layer("feed.offer_us",
               traced.offer_s / std::max<double>(1.0, static_cast<double>(traced.ticks)) * 1e6);
  report.layer("feed.publish_ms", mean(traced.publish_s) * 1e3);
  report.layer("feed.estimates_computed",
               d(traced_feed_before.estimates_computed, traced_feed_after.estimates_computed) /
                   epochs);
  report.layer("feed.columns_withheld",
               d(traced_feed_before.columns_withheld, traced_feed_after.columns_withheld) / epochs);
  report.layer("feed.ticks_per_s", ticks_per_s);
  report.layer("sharded.fanout_ingest_ms", mean(spanned.ingest_s) * 1e3);
  report.layer("service.replans", replans / requests);
  report.layer("service.hit_ratio",
               d(traced_before.wire.hits, traced_after.wire.hits) / requests);

  std::map<std::string, double> layers = self_time_by_layer(all);
  report_layer_shares(report, layers);
  report.info("traced: " + std::to_string(traced.epochs) + " epochs, " +
              std::to_string(all.size()) + " spans (" + std::to_string(spans::dropped()) +
              " dropped)");
  return report;
}

}  // namespace perfbench
