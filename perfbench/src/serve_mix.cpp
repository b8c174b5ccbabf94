// serve_mix — steady-state plan serving.
//
// One generator thread keeps a fixed window of kWindow requests outstanding
// on one routed PlanClient (4 connections, one per shard) into a
// PlanServerLoop over a 4-shard ShardedPlanService: a closed loop, because a
// tenant waits for its plan before it launches. Keys are drawn Zipf(kZipfS)
// from the canonical request universe (apps × deadlines × allowed type/zone
// sets), all solved during set-up; every kNewEvery-th request is a key never
// seen before and must be solved, so hits queue behind solves.
//
// The traced run adds a one-deep closed loop (the transport cost without
// queueing) and a decomposed replay of the same key stream on in-process
// twin tiers: each request is taken through the wire codec,
// canonicalization, routing and the hit or serve path one public call at a
// time, and each served solve is split into setup and search. The replay
// runs twice in lockstep, spans off and on, for the tracing overhead.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "net/wire.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

using namespace sompi;

namespace {

/// The market and load of bench_service_load: a 3-day market and four
/// requests in flight (its default four closed-loop threads; here one per
/// connection).
constexpr double kMarketDays = 3.0;
constexpr std::size_t kWindow = 4;
/// One never-seen key in 100, twice bench_service_load's --fresh-every 200.
/// At 1 in 200 the solves are half of the slowest 1%, so plan_p99_ms sits on
/// the edge between the hit path's scheduling tail and the solves and moved
/// by a third between runs on a 4-vCPU VM; at 1 in 100 it falls among the
/// solves and the hits queued behind them (1.70-1.80 ms over three seeds).
constexpr std::uint64_t kNewEvery = 100;
/// Key popularity skew: an assumption (no repository source); plans_per_s
/// and plan_p50_ms move by less than their run-to-run spread between
/// s = 0.8 and s = 1.2.
constexpr double kZipfS = 1.0;
constexpr std::uint64_t kSampleEvery = 97;
constexpr std::size_t kMaxSamples = 48;
constexpr std::uint64_t kNewTag = 1ull << 62;
/// The decomposed replay stops after this many requests (or its time share),
/// so its spans fit the recorder.
constexpr std::uint64_t kMaxReplayed = 100000;
/// Requests per turn of the lockstep untraced/traced replay.
constexpr std::uint64_t kReplayBlock = 32;

struct Fixture {
  std::unique_ptr<ServingStack> stack;
  std::vector<PlanRequest> universe;
  double cost_ratio = 0.0;  ///< mean prefilled plan cost / Baseline
};

std::unique_ptr<Fixture> build(Report* report) {
  auto fx = std::make_unique<Fixture>();
  fx->stack = std::make_unique<ServingStack>(kMarketDays, serving_optimizer());
  fx->universe = request_universe(*fx->stack->world);
  WireDriver driver(fx->stack->client.get());
  driver.submit_batch(fx->universe, 0, Clock::now());
  double ratio_sum = 0.0;
  std::size_t failed = 0;
  for (const Completion& c : driver.finish()) {
    if (!c.ok()) {
      ++failed;
      continue;
    }
    const PlanRequest& r = fx->universe[c.tag];
    ratio_sum += c.wire.response.plan->expected.cost_usd / baseline_cost(*fx->stack->world, r.app);
  }
  fx->cost_ratio = ratio_sum / static_cast<double>(fx->universe.size());
  if (failed != 0) report->check(false, "prefill: every universe key solved");
  return fx;
}

/// The request stream: Zipf ranks over the universe, except that every
/// kNewEvery-th request is a never-seen key — the next universe entry in
/// turn, made new by a unique deadline nudge — so every run solves the same
/// mix of apps and constraints.
class Generator {
 public:
  Generator(const std::vector<PlanRequest>* universe, std::uint64_t seed)
      : universe_(universe), zipf_(universe->size(), kZipfS), rng_(mix64(seed, 0x5E27E)) {}

  std::pair<PlanRequest, std::uint64_t> next() {
    if (++count_ % kNewEvery != 0) {
      const std::size_t k = zipf_(rng_);
      return {(*universe_)[k], k};
    }
    ++fresh_;
    PlanRequest r = (*universe_)[fresh_ % universe_->size()];
    r.deadline_h *= 1.0 + 1e-7 * static_cast<double>(fresh_);
    return {r, kNewTag | fresh_};
  }

  /// Never-seen keys drawn so far.
  std::uint64_t fresh() const { return fresh_; }

 private:
  const std::vector<PlanRequest>* universe_;
  Zipf zipf_;
  std::mt19937_64 rng_;
  std::uint64_t count_ = 0;
  std::uint64_t fresh_ = 0;
};

struct Sample {
  PlanRequest request;
  std::uint64_t epoch = 0;
  std::string fingerprint;
};

/// Throughput and latency are summarized over kIntervalS intervals.
constexpr double kIntervalS = 1.0;

struct LoopResult {
  explicit LoopResult(Clock::time_point start) : latency(start, kIntervalS) {}
  IntervalSeries latency;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
};

/// Closed loop for `seconds`: `window` requests outstanding at all times.
/// Samples served plans into `samples` unless it is null.
LoopResult closed_loop(Fixture& fx, Generator& gen, double seconds, std::size_t window,
                       std::vector<Sample>* samples) {
  WireDriver driver(fx.stack->client.get());
  std::unordered_map<std::uint64_t, PlanRequest> sampled;
  const auto t0 = Clock::now();
  LoopResult out(t0);
  std::uint64_t seq = 0;
  const auto submit = [&] {
    auto [request, tag] = gen.next();
    const std::uint64_t id = ++seq;
    if (samples != nullptr && id % kSampleEvery == 0 &&
        samples->size() + sampled.size() < kMaxSamples)
      sampled.emplace(id, request);
    driver.submit(request, id, Clock::now());
  };
  const auto absorb = [&](const Completion& c) {
    ++out.attempted;
    if (!c.ok()) {
      ++out.failed;
      return;
    }
    out.latency.add(c.done, c.latency_s);
    if (const auto it = sampled.find(c.tag); it != sampled.end()) {
      samples->push_back({it->second, c.wire.response.epoch,
                          plan_fingerprint(*c.wire.response.plan)});
      sampled.erase(it);
    }
  };
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; i < window; ++i) submit();
  while (Clock::now() < end) {
    for (const Completion& c : driver.poll()) {
      absorb(c);
      submit();
    }
  }
  for (const Completion& c : driver.finish()) absorb(c);
  out.elapsed_s = seconds_since(t0);
  return out;
}

/// Per-layer timings of the decomposed in-process replay.
struct Replay {
  std::vector<double> encode_s, decode_s, canonicalize_s, route_s, hit_s, serve_s, total_s;
  std::vector<double> setup_s, search_s;
  std::uint64_t bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
};

template <class F>
auto timed(const char* span, std::vector<double>* into, F&& f) {
  ScopedSpan s(span);
  const auto t0 = Clock::now();
  auto out = f();
  into->push_back(seconds_since(t0));
  return out;
}

/// Takes requests through the wire codec, canonicalization, routing and the
/// hit or serve path of an in-process twin tier, one public call at a time.
class Replayer {
 public:
  /// With `decompose`, every served solve is repeated split into setup and
  /// search (untimed by the request) and must give the same plan.
  Replayer(Fixture& fx, bool decompose)
      : world_(*fx.stack->world),
        twin_(&world_.catalog, &world_.estimator, world_.market,
              tier_config(serving_optimizer())),
        optimizer_(&world_.catalog, &world_.estimator, serving_optimizer()),
        decompose_(decompose) {
    for (const PlanRequest& r : fx.universe) (void)twin_.serve(r);
    snap_ = twin_.board(0).snapshot();
  }

  void step(const PlanRequest& request) {
    const std::uint64_t rid = ++out.requests;
    const auto t0 = Clock::now();
    PlanResponse response;
    {
      ScopedSpan root("replay.request", rid);
      const std::string frame = timed("net.encode", &out.encode_s, [&] {
        return net::encode_frame(net::MsgType::kPlanRequest, rid,
                                 net::encode_plan_request(request));
      });
      const PlanRequest decoded = timed("net.decode", &out.decode_s, [&] {
        server_side_.feed(frame);
        PlanRequest r;
        const std::optional<net::WireFrame> f = server_side_.next();
        if (!f || !net::decode_plan_request(f->payload, &r)) ++out.mismatches;
        return r;
      });
      const std::string key = timed("service.canonicalize", &out.canonicalize_s,
                                    [&] { return canonical_key(canonicalized(decoded)); });
      const std::size_t home = timed("sharded.route", &out.route_s,
                                     [&] { return twin_.home_shard_for_key(key); });
      std::optional<PlanResponse> hit = timed("service.hit", &out.hit_s,
                                              [&] { return twin_.try_serve_hit(home, decoded); });
      if (hit) {
        response = *hit;
      } else {
        out.hit_s.pop_back();  // a miss: its probe is part of the serve below
        response = timed("service.serve", &out.serve_s,
                         [&] { return twin_.serve_on(home, decoded); });
      }
      const std::string reply = timed("net.encode", &out.encode_s, [&] {
        return net::encode_frame(net::MsgType::kPlanResponse, rid,
                                 net::encode_plan_response(response));
      });
      (void)timed("net.decode", &out.decode_s, [&] {
        client_side_.feed(reply);
        PlanResponse r;
        const std::optional<net::WireFrame> f = client_side_.next();
        if (!f || !net::decode_plan_response(f->payload, &r)) ++out.mismatches;
        return r;
      });
      out.bytes += frame.size() + reply.size();
    }
    out.total_s.push_back(seconds_since(t0));
    if (decompose_ && response.outcome == PlanOutcome::kSolved && response.plan != nullptr) {
      // The served solve, split into its stages; same plan bit for bit.
      ScopedSpan s("check.decomposed_solve", rid);
      const DecomposedSolve d =
          decomposed_solve(world_, optimizer_, canonicalized(request), *snap_.market);
      out.setup_s.push_back(d.setup_s);
      out.search_s.push_back(d.search_s);
      if (plan_fingerprint(d.plan) != plan_fingerprint(*response.plan)) ++out.mismatches;
    }
  }

  Replay out;

 private:
  World& world_;
  ShardedPlanService twin_;
  const SompiOptimizer optimizer_;
  const bool decompose_;
  MarketSnapshot snap_;
  net::FrameDecoder server_side_;
  net::FrameDecoder client_side_;
};

/// The decomposed replay, untraced and traced in lockstep: both replayers
/// take the same requests (two copies of one generator) in blocks, taking
/// turns at going first, so the tracing overhead is the ratio of two timings
/// of the same instrumented work under the same host conditions.
struct PairedReplay {
  Replay untraced;
  Replay traced;
};

PairedReplay paired_replay(Fixture& fx, const Generator& gen, double seconds) {
  Replayer plain(fx, /*decompose=*/false);
  Replayer spanned(fx, /*decompose=*/true);
  Generator plain_gen = gen;
  Generator spanned_gen = gen;
  const auto run_block = [](Replayer& r, Generator& g, bool traced) {
    spans::set_enabled(traced);
    for (std::uint64_t i = 0; i < kReplayBlock; ++i) r.step(g.next().first);
    spans::set_enabled(false);
  };
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::uint64_t block = 0;
       Clock::now() < end && spanned.out.requests + kReplayBlock <= kMaxReplayed; ++block) {
    if (block % 2 == 0) {
      run_block(plain, plain_gen, false);
      run_block(spanned, spanned_gen, true);
    } else {
      run_block(spanned, spanned_gen, true);
      run_block(plain, plain_gen, false);
    }
  }
  return {std::move(plain.out), std::move(spanned.out)};
}

}  // namespace

Report run_serve_mix(const Options& opt) {
  Report report;
  double setup_s = 0.0;
  auto fx = repeated_setup(5, &setup_s, [&] { return build(&report); });
  Generator gen(&fx->universe, opt.seed);
  std::vector<Sample> samples;

  const double untraced_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const CounterSnapshot before = snapshot_counters(*fx->stack);
  const std::uint64_t fresh_before = gen.fresh();
  const LoopResult loop = closed_loop(*fx, gen, untraced_s, kWindow, &samples);
  const double rss_mb = peak_rss_mb();
  const CounterSnapshot after = snapshot_counters(*fx->stack);
  const std::uint64_t fresh = gen.fresh() - fresh_before;
  report.attempted = loop.attempted;
  report.failed = loop.failed;

  const double plans_per_s = loop.latency.median_rate();
  report.info("serve_mix: closed loop, window " + std::to_string(kWindow) + ", " +
              std::to_string(loop.attempted) + " requests in " + std::to_string(loop.elapsed_s) +
              " s over " + std::to_string(fx->universe.size()) + " canonical keys, 1 in " +
              std::to_string(kNewEvery) + " new");
  report.info(latency_line("client plan latency", loop.latency.samples()));
  report.info(interval_line(loop.latency));
  report.info("fail_ratio " + std::to_string(loop.failed) + " / " +
              std::to_string(loop.attempted));
  report.info("plan_cost_ratio (mean expected cost / Baseline over " +
              std::to_string(fx->universe.size()) + " keys) " + std::to_string(fx->cost_ratio));
  report_counters(report, before, after);

  // Every solve is a never-seen key: no universe key was evicted from the
  // cache (the one-shot new keys age out of its LRU instead).
  report.check(after.wire.solves - before.wire.solves == fresh,
               "solves == never-seen keys (" + std::to_string(fresh) +
                   "): no universe key evicted");
  // Sampled served plans against a cold solve at the same epoch.
  {
    ShardedPlanService& tier = *fx->stack->tier;
    const MarketSnapshot snap = tier.board(0).snapshot();
    std::size_t mismatches = 0;
    for (const Sample& s : samples) {
      const PlanRequest canon = canonicalized(s.request);
      const Plan cold = tier.shard(tier.home_shard(canon)).solve(canon, *snap.market);
      if (s.epoch != snap.epoch || plan_fingerprint(cold) != s.fingerprint) ++mismatches;
    }
    report.check(!samples.empty() && mismatches == 0,
                 "sampled served plans equal a cold PlanService::solve (" +
                     std::to_string(samples.size()) + " samples)");
  }

  report.end_to_end("setup_s", setup_s);
  report.end_to_end("peak_rss_mb", rss_mb);
  report.end_to_end("plans_per_s", plans_per_s);
  report.end_to_end("plan_p50_ms", loop.latency.median_percentile(0.5) * 1e3);
  report.end_to_end("plan_p99_ms", loop.latency.median_percentile(0.99) * 1e3);
  report.end_to_end("plan_cost_ratio", fx->cost_ratio);

  if (!opt.trace) return report;

  // --- traced run: a one-deep loop, then the paired decomposed replay -------
  const LoopResult one_deep = closed_loop(*fx, gen, opt.seconds * 0.2, 1, nullptr);
  const PairedReplay replays = paired_replay(*fx, gen, opt.seconds * 0.4);
  const Replay& replay = replays.traced;
  const std::vector<Span> all = spans::take();
  write_spans(opt.out_dir + "/spans_serve_mix.csv", all);
  report.check(replays.untraced.mismatches == 0 && replay.mismatches == 0,
               "replay: codec round trips and decomposed solves match the served plans");
  report.info(latency_line("one-deep client plan latency", one_deep.latency.samples()));

  const auto us = [](const std::vector<double>& v) { return mean(v) * 1e6; };
  const auto ms = [](const std::vector<double>& v) { return mean(v) * 1e3; };
  // Client latency of a lone request not spent in codec, canonicalize, route
  // or the in-process serve: pipe transfer and thread hand-offs.
  const double in_process_s = mean(replays.untraced.total_s);
  const double transport_us = (one_deep.latency.mean_latency() - in_process_s) * 1e6;
  // What a request waits behind the others in flight (client, pipes, server
  // pump and workers); charged to no layer.
  const double queue_us =
      (loop.latency.mean_latency() - one_deep.latency.mean_latency()) * 1e6;

  const std::uint64_t requests = after.wire.requests - before.wire.requests;
  const auto per_request = [&](std::uint64_t n) {
    return static_cast<double>(n) / std::max<double>(1.0, static_cast<double>(requests));
  };
  const std::uint64_t solves = after.tier.total.solves - before.tier.total.solves;
  const auto per_solve = [&](std::uint64_t n) {
    return static_cast<double>(n) / std::max<double>(1.0, static_cast<double>(solves));
  };
  const std::uint64_t table_hits = after.tables.hits - before.tables.hits;
  const std::uint64_t table_lookups = after.tables.lookups() - before.tables.lookups();

  report.layer("tracing.overhead_pct",
               (total(replay.total_s) / total(replays.untraced.total_s) - 1.0) * 100.0);
  report.layer("core.setup_ms", ms(replay.setup_s));
  report.layer("core.search_ms", ms(replay.search_s));
  report.layer("core.evaluations",
               per_solve(after.tier.total.evaluations_performed -
                         before.tier.total.evaluations_performed));
  report.layer("core.tuples_pruned",
               per_solve(after.tier.total.tuples_pruned - before.tier.total.tuples_pruned));
  const double pruned =
      static_cast<double>(after.tier.total.tuples_pruned - before.tier.total.tuples_pruned);
  report.layer("core.prune_ratio",
               pruned / std::max(1.0, pruned + static_cast<double>(
                                                   after.tier.total.evaluations_performed -
                                                   before.tier.total.evaluations_performed)));
  report.layer("core.tables_reuse_ratio",
               static_cast<double>(table_hits) / std::max<double>(1.0, table_lookups));
  report.layer("sharded.route_us", us(replay.route_s));
  report.layer("sharded.forwarded", per_request(after.wire.forwarded - before.wire.forwarded));
  report.layer("sharded.duplicate_solves",
               static_cast<double>(after.wire.duplicate_solves - before.wire.duplicate_solves));
  report.layer("service.canonicalize_us", us(replay.canonicalize_s));
  report.layer("service.hit_us", us(replay.hit_s));
  report.layer("service.serve_ms", ms(replay.serve_s));
  report.layer("service.hit_ratio", per_request(after.wire.hits - before.wire.hits));
  report.layer("service.joins", per_request(after.wire.dedup_joins - before.wire.dedup_joins));
  report.layer("service.sheds", per_request(after.wire.sheds - before.wire.sheds));
  report.layer("net.encode_us", us(replay.encode_s));
  report.layer("net.decode_us", us(replay.decode_s));
  report.layer("net.bytes_per_request",
               static_cast<double>(replay.bytes) /
                   std::max<double>(1.0, static_cast<double>(replay.requests)));
  report.layer("net.transport_us", transport_us);
  report.layer("net.frames_rejected",
               static_cast<double>(after.wire.frames_rejected - before.wire.frames_rejected +
                                   after.client_codec.rejects() - before.client_codec.rejects()));
  report.layer("net.wire_errors",
               static_cast<double>(after.wire.wire_errors - before.wire.wire_errors));
  report.layer("window.queue_us", queue_us);

  // Self time per layer over the traced replay. An in-process serve of a miss
  // runs the optimizer, whose stages the decomposed solve timed: that part is
  // core time, the rest of the serve is service time. Each replayed request
  // also pays the one-deep transport once, which is net time.
  std::map<std::string, double> layers = self_time_by_layer(all);
  const double solve_s = total(replay.setup_s) + total(replay.search_s);
  layers["service"] -= std::min(layers["service"], solve_s);
  layers["core"] = solve_s;
  layers["net"] += std::max(0.0, transport_us) * 1e-6 * static_cast<double>(replay.requests);
  report_layer_shares(report, layers);
  report.info("traced: " + std::to_string(one_deep.attempted) + " one-deep wire requests, " +
              std::to_string(replay.requests) + " replayed twice, " +
              std::to_string(all.size()) + " spans (" + std::to_string(spans::dropped()) +
              " dropped)");
  return report;
}

}  // namespace perfbench
