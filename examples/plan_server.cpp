// plan_server — interactive/scripted driver for the PlanService.
//
//   $ ./plan_server [--days D=5] [--seed S=2014] [--solves C=2] [--queue Q=16]
//
// Reads commands from stdin (pipe a script, or type at the prompt):
//
//   plan <APP> <deadline_factor> [type=NAME]* [zone=NAME]*
//         serve one request; deadline = factor × the app's on-demand baseline
//   burst <APP> <deadline_factor> <n>
//         n concurrent identical requests — watch single-flight collapse them
//   tick [steps=8]
//         ingest the next pre-generated market steps and bump the epoch
//   feed <steps> [producers=1]
//         replay the next steps through the streaming feed pipeline
//         (src/feed): ticks flow through the bounded MPSC queue when
//         producers > 1, commit through the resolution frontier, and publish
//         epoch batches with windowed re-estimation — the live-ingestion
//         path, where tick is the hand-rolled batch one
//   platform [<file>|example] [APP]
//         load and inspect a declarative platform file (src/platform):
//         parse counters, host/link/zone tables, and the per-(type, zone)
//         derived T/O/R profiles a platform-aware optimizer would consume.
//         With no path (or "example") the built-in heterogeneous example
//         platform (examples/platforms/hetero_slow_zone.plat) is shown
//   shards <N> [APP] [factor] [burst=8]
//         spin up an N-shard replicated serving tier (src/service/sharded)
//         over the current market: spray `burst` identical requests onto
//         different shards (the cross-shard dedup tier forwards them all to
//         the ring-home shard — exactly one solve), then push a small batch
//         through the async submit_batch/harvest API, and print per-shard +
//         aggregate counters with the dedup ledger's verdict
//   serve [N=4]
//         start the wire-serving front end (src/net): an N-shard tier under
//         a PlanServerLoop with one router-aware and one spray PlanClient
//         dialed in; subsequent `client` requests go over the wire protocol
//   client <routed|spray> <APP> <factor> [n=1]
//         send n plan requests through the chosen wire client (blocking
//         round trips, correlated by request id); routed lands every key on
//         its ring home — watch `stats` keep forwarded at 0 — while spray
//         round-robins and pays one forward per misrouted request
//   epoch   print the current market epoch
//   stats   print the service counters and solve-latency percentiles; with
//           the wire front end up, also a StatsRequest round trip's tier
//           ledger (routed/sprayed/forwarded, duplicate solves, frames)
//   help    this text
//   quit
//
// Example session:
//   plan BT 1.5          → solved (optimizer ran)
//   plan BT 1.5          → hit (O(1), same epoch)
//   tick                 → epoch 2
//   plan BT 1.5          → solved (market moved)
//   burst SP 1.4 8       → 1 solve + 7 joins
//   feed 96 4            → 4 producers stream a day of ticks, epochs advance
//   shards 4 BT 1.5 8    → 8-way spray across 4 shards: 1 solve, 0 duplicates
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "feed/pipeline.h"
#include "feed/tick_source.h"
#include "net/client.h"
#include "net/server.h"
#include "platform/examples.h"
#include "platform/parser.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "service/plan_service.h"
#include "service/sharded/batch.h"
#include "service/sharded/sharded_service.h"

using namespace sompi;

namespace {

AppProfile resolve_app(const std::string& name) {
  if (name == "LAMMPS32") return lammps_profile(32);
  if (name == "LAMMPS128") return lammps_profile(128);
  return paper_profile(name);  // throws with a clear message when unknown
}

void print_plan(const PlanResponse& r, double wall_ms) {
  if (r.outcome == PlanOutcome::kShed) {
    std::printf("→ SHED (service overloaded) at epoch %llu\n",
                static_cast<unsigned long long>(r.epoch));
    return;
  }
  const Plan& p = *r.plan;
  std::printf("→ %s in %.3f ms at epoch %llu: E[cost] $%.2f, E[time] %.1f h, %zu group(s)%s\n",
              outcome_label(r.outcome), wall_ms, static_cast<unsigned long long>(r.epoch),
              p.expected.cost_usd, p.expected.time_h, p.groups.size(),
              p.uses_spot() ? "" : " (on-demand only)");
  for (const GroupPlan& g : p.groups)
    std::printf("    %-22s M=%-3d bid $%-7.4f F=%d/%d steps\n", g.name.c_str(), g.instances,
                g.bid_usd, g.f_steps, g.t_steps);
}

void print_stats(const ServiceStats& s) {
  std::printf("epoch %llu | requests %llu: hits %llu, solves %llu, joins %llu, sheds %llu\n",
              static_cast<unsigned long long>(s.epoch),
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.solves),
              static_cast<unsigned long long>(s.dedup_joins),
              static_cast<unsigned long long>(s.sheds));
  std::printf("cache %zu entrie(s), %llu stale-evicted | solve p50 %.2f ms, p99 %.2f ms, "
              "total %.2f s\n",
              s.cache_entries, static_cast<unsigned long long>(s.stale_evicted), s.solve_p50_ms,
              s.solve_p99_ms, s.solve_seconds_total);
  std::printf("replans %llu (%llu warm-seeded) | tables reused %llu / rebuilt %llu | "
              "failure models built %llu | replan p50 %.2f ms, p99 %.2f ms\n",
              static_cast<unsigned long long>(s.replan_count),
              static_cast<unsigned long long>(s.warm_seeds),
              static_cast<unsigned long long>(s.replan_table_hits),
              static_cast<unsigned long long>(s.replan_table_misses),
              static_cast<unsigned long long>(s.failure_models_built), s.replan_p50_ms,
              s.replan_p99_ms);
}

void print_wire_stats(const net::WireTierStats& w) {
  std::printf("wire tier (epoch %llu): requests %llu — hits %llu, solves %llu, joins %llu, "
              "sheds %llu (+%llu at the wire door)\n",
              static_cast<unsigned long long>(w.epoch),
              static_cast<unsigned long long>(w.requests),
              static_cast<unsigned long long>(w.hits),
              static_cast<unsigned long long>(w.solves),
              static_cast<unsigned long long>(w.dedup_joins),
              static_cast<unsigned long long>(w.sheds),
              static_cast<unsigned long long>(w.wire_sheds));
  std::printf("routing ledger: routed %llu, sprayed %llu, forwarded %llu%s | "
              "duplicate solves %llu — %s\n",
              static_cast<unsigned long long>(w.routed),
              static_cast<unsigned long long>(w.sprayed),
              static_cast<unsigned long long>(w.forwarded),
              w.forwarded == 0 ? " (router-aware clients land home)" : "",
              static_cast<unsigned long long>(w.duplicate_solves),
              w.duplicate_solves == 0 ? "exactly-once economy holds" : "VIOLATED");
  std::printf("wire: %llu connection(s), frames %llu in / %llu out, %llu rejected, "
              "%llu error(s)\n",
              static_cast<unsigned long long>(w.connections),
              static_cast<unsigned long long>(w.frames_received),
              static_cast<unsigned long long>(w.responses_sent),
              static_cast<unsigned long long>(w.frames_rejected),
              static_cast<unsigned long long>(w.wire_errors));
}

void print_platform(const Catalog& catalog, const platform::Platform& plat,
                    const platform::PlatformParseStats& stats, const AppProfile& app) {
  std::printf("parsed %zu host(s), %zu link(s), %zu zone(s)", stats.hosts_parsed,
              stats.links_parsed, stats.zones_parsed);
  if (stats.skipped() > 0)
    std::printf(" — %zu line(s) skipped (unknown %zu, no-name %zu, missing %zu, bad %zu, "
                "dup %zu, dangling %zu)",
                stats.skipped(), stats.unknown_directive, stats.missing_name,
                stats.missing_field, stats.bad_field, stats.duplicate_name,
                stats.dangling_link);
  std::printf("\n");

  for (const platform::Host& h : plat.hosts())
    std::printf("  host %-12s gips/core %-5.2f nic %-6.2f Gbit/s lat %-5.0f us "
                "disk %.0f MB/s\n",
                h.type.c_str(), h.gips_per_core, h.nic_gbps, h.nic_latency_us, h.disk_mbps);
  for (const platform::Link& l : plat.links())
    std::printf("  link %-12s %-7.2f Gbit/s lat %-5.0f us %s\n", l.name.c_str(), l.gbps,
                l.latency_us, l.shared ? "shared" : "dedicated");
  for (const platform::ZoneNode& z : plat.zones())
    std::printf("  zone %-12s intra=%s uplink=%s compute_scale=%.2f\n", z.name.c_str(),
                plat.link(z.intra_link).name.c_str(), plat.link(z.uplink).name.c_str(),
                z.compute_scale);

  // The derived per-(type, zone) profiles a platform-aware optimizer feeds
  // into the cost model: productive hours T, checkpoint overhead O and
  // recovery overhead R for `app`.
  const ExecTimeEstimator est(&plat);
  std::printf("  derived profiles for %s (T / O / R hours):\n", app.name.c_str());
  for (const InstanceType& type : catalog.types()) {
    std::printf("    %-12s", type.name.c_str());
    for (const Zone& zone : catalog.zones()) {
      const double t_h = est.hours(app, type, zone.name);
      const CheckpointCosts ck = est.checkpoint_costs(app, type, zone.name);
      std::printf("  %s %.2f/%.3f/%.3f", zone.name.c_str(), t_h, ck.checkpoint_h,
                  ck.recovery_h);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  double days = 5.0;
  std::uint64_t seed = 2014;
  std::size_t solves = 2, queue = 16;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--days") days = std::atof(argv[i + 1]);
    if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    if (arg == "--solves") solves = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    if (arg == "--queue") queue = static_cast<std::size_t>(std::atoll(argv[i + 1]));
  }

  Catalog catalog = paper_catalog();
  ExecTimeEstimator est;
  const double step_hours = 0.25;

  // Generate `days` of history to serve from, plus a hidden "future" tail
  // that tick commands reveal step by step — a scripted stand-in for a live
  // spot-price feed.
  const double future_days = 2.0;
  Market full = generate_market(catalog, paper_market_profile(catalog), days + future_days,
                                step_hours, seed);
  const std::size_t visible = static_cast<std::size_t>(days * 24.0 / step_hours);
  MarketBoard board(full.window(0, visible));
  std::size_t cursor = visible;
  const std::size_t total_steps = full.trace({0, 0}).steps();

  ServiceConfig cfg;
  cfg.max_concurrent_solves = solves;
  cfg.max_queued_solves = queue;
  cfg.opt.max_candidates = 5;
  cfg.opt.setup.log_levels = 5;
  PlanService service(&catalog, &est, &board, cfg);
  const OnDemandSelector selector(&catalog, &est);

  // Wire-serving session state (`serve` / `client` commands). Declaration
  // order is destruction safety: clients close and join their readers
  // before the server loop they dial into, which drains before its tier.
  std::unique_ptr<ShardedPlanService> wire_tier;
  std::unique_ptr<net::PlanServerLoop> wire_server;
  std::unique_ptr<net::PlanClient> wire_routed;
  std::unique_ptr<net::PlanClient> wire_spray;

  const bool tty = isatty(fileno(stdin)) != 0;
  if (tty)
    std::printf("plan_server ready (epoch %llu, %zu visible steps). Type 'help'.\n",
                static_cast<unsigned long long>(board.epoch()), visible);

  std::string line;
  while (true) {
    if (tty) {
      std::printf("sompi> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    try {
      if (cmd == "quit" || cmd == "exit") break;

      if (cmd == "help") {
        std::printf("commands: plan <APP> <factor> [type=..]* [zone=..]* | "
                    "burst <APP> <factor> <n> | tick [steps] | "
                    "feed <steps> [producers] | platform [file|example] [APP] | "
                    "shards <N> [APP] [factor] [burst] | serve [N] | "
                    "client <routed|spray> <APP> <factor> [n] | epoch | stats | quit\n");

      } else if (cmd == "plan" || cmd == "burst") {
        std::string app_name;
        double factor = 1.5;
        in >> app_name >> factor;
        PlanRequest request;
        request.app = resolve_app(app_name);
        request.deadline_h = selector.baseline(request.app).t_h * factor;
        int n = 1;
        if (cmd == "burst") {
          in >> n;
          if (n < 1) n = 1;
        }
        std::string constraint;
        while (in >> constraint) {
          if (constraint.rfind("type=", 0) == 0)
            request.allowed_types.push_back(constraint.substr(5));
          else if (constraint.rfind("zone=", 0) == 0)
            request.allowed_zones.push_back(constraint.substr(5));
        }
        if (n == 1) {
          const auto t0 = std::chrono::steady_clock::now();
          const PlanResponse r = service.serve(request);
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
          print_plan(r, ms);
        } else {
          const ServiceStats before = service.stats();
          std::vector<std::thread> threads;
          for (int t = 0; t < n; ++t)
            threads.emplace_back([&] { (void)service.serve(request); });
          for (auto& th : threads) th.join();
          const ServiceStats after = service.stats();
          std::printf("→ burst of %d: %llu solve(s), %llu join(s), %llu hit(s), %llu shed(s)\n",
                      n, static_cast<unsigned long long>(after.solves - before.solves),
                      static_cast<unsigned long long>(after.dedup_joins - before.dedup_joins),
                      static_cast<unsigned long long>(after.hits - before.hits),
                      static_cast<unsigned long long>(after.sheds - before.sheds));
        }

      } else if (cmd == "tick") {
        std::size_t steps = 8;
        in >> steps;
        steps = std::min(steps, total_steps - cursor);
        if (steps == 0) {
          std::printf("→ market feed exhausted (regenerate with --days)\n");
          continue;
        }
        std::vector<PriceUpdate> updates;
        for (std::size_t t = 0; t < catalog.types().size(); ++t)
          for (std::size_t z = 0; z < catalog.zones().size(); ++z) {
            const CircleGroupSpec group{t, z};
            const std::span<const double> slice =
                full.trace(group).prices().subspan(cursor, steps);
            updates.push_back(PriceUpdate{group, {slice.begin(), slice.end()}});
          }
        cursor += steps;
        const std::uint64_t epoch = board.ingest(updates);
        std::printf("→ ingested %zu step(s)/group, epoch %llu, stale evicted %zu\n", steps,
                    static_cast<unsigned long long>(epoch), service.invalidate_stale());

      } else if (cmd == "feed") {
        std::size_t steps = 8, producers = 1;
        in >> steps >> producers;
        steps = std::min(steps, total_steps - cursor);
        if (steps == 0) {
          std::printf("→ market feed exhausted (regenerate with --days)\n");
          continue;
        }
        producers = std::clamp<std::size_t>(producers, 1, 8);
        // A fresh pipeline keys off the board's current length, so repeated
        // feed commands resume exactly where the last one (or tick) stopped.
        feed::FeedConfig fcfg;
        fcfg.publish_every = 4;
        fcfg.estimation.samples = 128;
        fcfg.estimation.horizon_steps = 32;
        BoardFanout fanout({&board});
        feed::FeedPipeline pipe(&fanout, fcfg);
        if (producers == 1) {
          feed::ReplayTickSource source(&full, {}, cursor, steps);
          pipe.ingest(source);
        } else {
          const std::vector<CircleGroupSpec> all = catalog.all_groups();
          pipe.start();
          std::vector<std::thread> threads;
          for (std::size_t p = 0; p < producers; ++p)
            threads.emplace_back([&, p] {
              std::vector<CircleGroupSpec> mine;
              for (std::size_t g = p; g < all.size(); g += producers)
                mine.push_back(all[g]);
              feed::ReplayTickSource shard(&full, mine, cursor, steps);
              pipe.pump(shard);
            });
          for (auto& th : threads) th.join();
          pipe.stop();
        }
        pipe.flush();
        cursor += steps;
        const feed::FeedStats fs = pipe.stats();
        std::printf("→ streamed %llu tick(s) via %zu producer(s): %llu step(s) committed, "
                    "%llu epoch(s) published, digest %016llx, epoch %llu, stale evicted %zu\n",
                    static_cast<unsigned long long>(fs.ticks_ingested), producers,
                    static_cast<unsigned long long>(fs.committed_steps),
                    static_cast<unsigned long long>(fs.epochs_published),
                    static_cast<unsigned long long>(pipe.commit_digest()),
                    static_cast<unsigned long long>(board.epoch()),
                    service.invalidate_stale());

      } else if (cmd == "platform") {
        std::string path, app_name;
        in >> path >> app_name;
        const AppProfile app = resolve_app(app_name.empty() ? "BT" : app_name);
        platform::PlatformParseStats pstats;
        if (path.empty() || path == "example") {
          const platform::Platform plat =
              platform::parse_platform(platform::example_hetero_platform_text(), &pstats);
          std::printf("→ built-in example platform (examples/platforms/"
                      "hetero_slow_zone.plat)\n");
          print_platform(catalog, plat, pstats, app);
        } else {
          const platform::Platform plat = platform::read_platform_file(path, &pstats);
          std::printf("→ %s\n", path.c_str());
          print_platform(catalog, plat, pstats, app);
        }

      } else if (cmd == "shards") {
        std::size_t n = 4;
        std::string app_name = "BT";
        double factor = 1.5;
        int burst = 8;
        in >> n >> app_name >> factor >> burst;
        n = std::clamp<std::size_t>(n, 1, 16);
        if (burst < 1) burst = 8;

        // A fresh tier over the board's CURRENT market: every shard's
        // replica starts bit-identical, fed by one fan-out from here on.
        ShardedConfig scfg;
        scfg.shards = n;
        scfg.service.max_concurrent_solves = solves;
        scfg.service.max_queued_solves = std::max<std::size_t>(queue, 64);
        scfg.service.opt.max_candidates = 5;
        scfg.service.opt.setup.log_levels = 5;
        ShardedPlanService tier(&catalog, &est, *board.snapshot().market, scfg);

        PlanRequest request;
        request.app = resolve_app(app_name);
        request.deadline_h = selector.baseline(request.app).t_h * factor;
        const std::size_t home = tier.home_shard(request);

        // Spray the identical request onto `burst` different landing shards
        // at once — the load-balancer-gone-wrong case the dedup tier exists
        // for.
        std::vector<std::thread> threads;
        for (int t = 0; t < burst; ++t)
          threads.emplace_back([&, t] {
            (void)tier.serve_on(static_cast<std::size_t>(t) % tier.shard_count(), request);
          });
        for (auto& th : threads) th.join();

        ShardedStats ss = tier.stats();
        std::printf("→ sprayed %d identical request(s) across %zu shard(s): "
                    "%llu solve(s), %llu join(s), %llu hit(s), %llu forwarded home to "
                    "shard %zu\n",
                    burst, n, static_cast<unsigned long long>(ss.total.solves),
                    static_cast<unsigned long long>(ss.total.dedup_joins),
                    static_cast<unsigned long long>(ss.total.hits),
                    static_cast<unsigned long long>(ss.forwarded), home);
        std::printf("  dedup ledger: %zu distinct solve(s), %llu duplicate(s) — %s\n",
                    tier.distinct_solves(),
                    static_cast<unsigned long long>(ss.duplicate_solves),
                    ss.duplicate_solves == 0 ? "exactly-once economy holds" : "VIOLATED");

        // The async batch front door: a few distinct deadlines through
        // submit_batch, drained, then harvested exactly once each.
        {
          AsyncBatchService batch_api(&tier, {.workers = 4, .queue_capacity = 64});
          std::vector<PlanRequest> requests;
          for (int i = 0; i < 6; ++i) {
            PlanRequest r = request;
            r.deadline_h = request.deadline_h * (1.0 + 0.05 * i);
            requests.push_back(std::move(r));
          }
          batch_api.submit_batch(requests);
          batch_api.drain();
          const std::vector<BatchCompletion> done = batch_api.harvest();
          std::printf("  batch: %zu submitted → %zu completed, outcomes:", requests.size(),
                      done.size());
          for (const BatchCompletion& c : done)
            std::printf(" #%llu=%s", static_cast<unsigned long long>(c.ticket),
                        c.error.empty() ? outcome_label(c.response.outcome) : "error");
          std::printf("\n");
        }

        ss = tier.stats();
        for (std::size_t i = 0; i < tier.shard_count(); ++i) {
          const ServiceStats& sh = ss.per_shard[i];
          std::printf("  shard %zu%s: requests %llu, hits %llu, solves %llu, joins %llu, "
                      "cache %zu\n",
                      i, i == home ? " (home)" : "",
                      static_cast<unsigned long long>(sh.requests),
                      static_cast<unsigned long long>(sh.hits),
                      static_cast<unsigned long long>(sh.solves),
                      static_cast<unsigned long long>(sh.dedup_joins), sh.cache_entries);
        }
        std::printf("  aggregate: requests %llu (routed %llu, sprayed %llu), epoch %llu\n",
                    static_cast<unsigned long long>(ss.total.requests),
                    static_cast<unsigned long long>(ss.routed),
                    static_cast<unsigned long long>(ss.sprayed),
                    static_cast<unsigned long long>(ss.total.epoch));

      } else if (cmd == "serve") {
        std::size_t n = 4;
        in >> n;
        n = std::clamp<std::size_t>(n, 1, 16);
        // Tear down any previous front end in dependency order.
        wire_spray.reset();
        wire_routed.reset();
        wire_server.reset();
        wire_tier.reset();
        ShardedConfig scfg;
        scfg.shards = n;
        scfg.service.max_concurrent_solves = solves;
        scfg.service.max_queued_solves = std::max<std::size_t>(queue, 64);
        scfg.service.opt.max_candidates = 5;
        scfg.service.opt.setup.log_levels = 5;
        wire_tier = std::make_unique<ShardedPlanService>(&catalog, &est,
                                                         *board.snapshot().market, scfg);
        wire_server = std::make_unique<net::PlanServerLoop>(wire_tier.get(),
                                                            net::ServerConfig{});
        wire_routed = std::make_unique<net::PlanClient>(wire_server.get(),
                                                        net::ClientMode::kRouted);
        wire_spray = std::make_unique<net::PlanClient>(wire_server.get(),
                                                       net::ClientMode::kSpray);
        std::printf("→ wire front end up: %zu shard(s), %zu connection(s) per client "
                    "(one per shard), epoch %llu\n",
                    n, wire_routed->connection_count(),
                    static_cast<unsigned long long>(wire_tier->fanout().epoch()));

      } else if (cmd == "client") {
        if (wire_server == nullptr) {
          std::printf("→ no wire front end (run 'serve' first)\n");
          continue;
        }
        std::string mode_name, app_name;
        double factor = 1.5;
        int n = 1;
        in >> mode_name >> app_name >> factor >> n;
        if (n < 1) n = 1;
        net::PlanClient* which = mode_name == "spray" ? wire_spray.get() : wire_routed.get();
        if (mode_name != "spray" && mode_name != "routed") {
          std::printf("→ client mode must be 'routed' or 'spray'\n");
          continue;
        }
        PlanRequest request;
        request.app = resolve_app(app_name);
        request.deadline_h = selector.baseline(request.app).t_h * factor;
        for (int i = 0; i < n; ++i) {
          const std::size_t shard = which->pick_shard(request);
          const auto t0 = std::chrono::steady_clock::now();
          const PlanResponse r = which->plan(request);
          const double ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
          std::printf("  [%s → conn %zu]", mode_name.c_str(), shard);
          print_plan(r, ms);
        }

      } else if (cmd == "epoch") {
        std::printf("epoch %llu\n", static_cast<unsigned long long>(board.epoch()));

      } else if (cmd == "stats") {
        print_stats(service.stats());
        // The wire tier's ledger, fetched THROUGH the wire — a StatsRequest
        // round trip, so the shell sees exactly what a remote client would.
        if (wire_routed != nullptr) print_wire_stats(wire_routed->server_stats());

      } else {
        std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  if (tty) std::printf("bye\n");
  return 0;
}
