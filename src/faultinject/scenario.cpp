#include "faultinject/scenario.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/compress.h"
#include "checkpoint/incremental.h"
#include "checkpoint/multilevel.h"
#include "checkpoint/redundancy.h"
#include "checkpoint/state_buffer.h"
#include "checkpoint/storage.h"
#include "cloud/catalog.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "core/ondemand.h"
#include "core/schedule.h"
#include "faultinject/faulty_store.h"
#include "faultinject/injector.h"
#include "feed/pipeline.h"
#include "feed/tick_source.h"
#include "minimpi/runtime.h"
#include "platform/models.h"
#include "platform/parser.h"
#include "platform/platform.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/market_board.h"
#include "service/plan_service.h"
#include "service/sharded/sharded_service.h"
#include "sim/replay.h"
#include "trace/market.h"

namespace sompi::fi {

namespace {

// ---------------------------------------------------------------------------
// Deterministic observables → one order-sensitive 64-bit digest.

std::uint64_t fnv1a_bytes(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ULL;
  }
  return h;
}

class Digest {
 public:
  void mix(std::uint64_t v) {
    std::uint64_t s = h_ ^ v;
    h_ = splitmix64(s);
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix(bool b) { mix(static_cast<std::uint64_t>(b ? 1 : 2)); }
  void mix(const std::string& s) {
    mix(fnv1a_bytes(std::as_bytes(std::span<const char>(s.data(), s.size()))));
  }
  void mix_bytes(std::span<const std::byte> bytes) { mix(fnv1a_bytes(bytes)); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x5EEDD16E57ULL;
};

/// Collects invariant violations from any rank thread; the first one becomes
/// the scenario's failure detail.
class Violations {
 public:
  void record(std::string detail) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_.empty()) first_ = std::move(detail);
  }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_;
  }
  bool any() const { return !first().empty(); }

 private:
  mutable std::mutex mutex_;
  std::string first_;
};

// ---------------------------------------------------------------------------
// Scenario 0/1: coordinated checkpointing under chaos.
//
// An iterative app whose per-rank state at iteration i is a pure function of
// (seed, rank, i) — so a restore can be verified byte-for-byte against a
// recomputation. Ranks run lockstep (tick → allreduce → maybe save), which
// keeps every injector stream's op sequence deterministic even when a fault
// kills the world mid-protocol: per-rank storage keys serialize each rank's
// own traffic, and no storage op sits between a collective and the next
// collective where a racing kill could skip it.

double state_value(std::uint64_t seed, int rank, int iter, std::size_t j) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(rank) << 32) ^
                    (static_cast<std::uint64_t>(iter) * 0x9E3779B97F4A7C15ULL) ^ j;
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
}

std::vector<std::byte> expected_state(std::uint64_t seed, int rank, int iter,
                                      std::size_t doubles) {
  std::vector<double> data(doubles);
  for (std::size_t j = 0; j < doubles; ++j) data[j] = state_value(seed, rank, iter, j);
  StateWriter w;
  w.write<std::int32_t>(iter);
  w.write_vec(data);
  return w.take();
}

/// The checkpointer under test, for the shared lockstep app: a Checkpointer,
/// an IncrementalCheckpointer or a MultiLevelCheckpointer.
struct CkptOps {
  std::function<int(mpi::Comm&, std::span<const std::byte>)> save;
  std::function<std::optional<std::vector<std::byte>>(mpi::Comm&)> load;
  std::function<bool(mpi::Comm&)> has;
  std::function<int()> latest;
};

/// The chaos retry loop shared by the checkpointing kinds. Attempt 0 runs
/// under the plan's kill schedule; once the plan's attempt budget is spent
/// the injector is quiesced (deterministically, at an attempt boundary), so
/// the next attempt runs clean — completion within max_faults + 4 attempts
/// is itself an invariant. `trace` (optional) sees every attempt's result.
/// Returns the attempts made.
int run_with_retries(int ranks, const mpi::Runtime::RankFn& rank_fn, const FaultPlan& plan,
                     FaultInjector& injector, Violations& violations,
                     const std::function<void(int, const mpi::RunResult&)>& trace = {}) {
  const int max_attempts = static_cast<int>(plan.max_faults) + 4;
  bool completed = false;
  int attempts = 0;
  for (; attempts < max_attempts && !completed; ++attempts) {
    if (attempts >= static_cast<int>(plan.max_faults) + 1) injector.quiesce();
    const mpi::RunResult result =
        attempts == 0 ? mpi::Runtime::run_with_plan(ranks, rank_fn, plan)
                      : mpi::Runtime::run(ranks, rank_fn);
    if (trace) trace(attempts, result);
    if (violations.any()) break;
    completed = result.completed;
    for (const std::string& err : result.errors) {
      if (!InjectedFault::describes(err)) {
        violations.record("non-injected error escaped: " + err);
        break;
      }
    }
    if (violations.any()) break;
  }
  if (!violations.any() && !completed)
    violations.record("run did not complete within the fault budget (" +
                      std::to_string(max_attempts) + " attempts)");
  return attempts;
}

/// Post-mortem with chaos disabled: `load` must return the final state of
/// every rank.
void verify_final_state(
    int ranks, const std::function<std::optional<std::vector<std::byte>>(mpi::Comm&)>& load,
    std::uint64_t seed, int total_iters, std::size_t doubles, Violations& violations) {
  const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    const auto blob = load(comm);
    if (!blob) {
      violations.record("no committed snapshot after a completed run");
      return;
    }
    const auto want = expected_state(seed, comm.rank(), total_iters, doubles);
    if (*blob != want)
      violations.record("final committed snapshot of rank " + std::to_string(comm.rank()) +
                        " is not the final state");
  });
  if (!result.completed && !violations.any())
    violations.record("chaos-free verification world failed");
}

/// The lockstep app of the checkpointing kinds, one instance per scenario.
/// Each rank restores and verifies the latest snapshot (if any), then runs
/// tick → allreduce → save every ckpt_every iterations up to total_iters.
/// Rank 0 records every commit and then calls after_commit (if set), the
/// hook for post-save chaos.
struct LockstepApp {
  LockstepApp(std::uint64_t seed, int total_iters, int ckpt_every, std::size_t doubles,
              bool check_commit_floor)
      : seed(seed),
        total_iters(total_iters),
        ckpt_every(ckpt_every),
        doubles(doubles),
        check_commit_floor(check_commit_floor) {}

  std::uint64_t seed;
  int total_iters;
  int ckpt_every;
  std::size_t doubles;
  /// Also flag a restore below a recorded commit (the flat-store kinds).
  bool check_commit_floor;
  std::function<void(int version)> after_commit;

  // Written by rank 0 only; reads happen after join() (which synchronizes).
  std::vector<std::pair<int, int>> committed;  // (version, iter), in commit order
  int max_attempted = 0;
  int last_restored = -1;

  void run_rank(mpi::Comm& comm, const CkptOps& ops, Violations& violations) {
    int iter = 0;
    if (ops.has(comm)) {
      const auto blob = ops.load(comm);
      if (!blob) {
        violations.record("has_snapshot true but load_latest returned nothing");
        return;
      }
      StateReader reader(*blob);
      iter = reader.read<std::int32_t>();
      if (comm.rank() == 0) {
        if (check_commit_floor) {
          int max_committed = 0;
          for (const auto& [v, it] : committed) max_committed = std::max(max_committed, it);
          if (iter < max_committed)
            violations.record("restore regressed below a recorded commit: iter " +
                              std::to_string(iter) + " < " + std::to_string(max_committed));
        }
        if (iter > max_attempted)
          violations.record("restored progress exceeds last attempted checkpoint: iter " +
                            std::to_string(iter) + " > " + std::to_string(max_attempted));
        if (iter < last_restored)
          violations.record("restored progress regressed across attempts");
        last_restored = iter;
      }
      const auto want = expected_state(seed, comm.rank(), iter, doubles);
      if (*blob != want)
        violations.record("restored state of rank " + std::to_string(comm.rank()) +
                          " does not match the bytes saved at iteration " +
                          std::to_string(iter));
    }
    while (iter < total_iters) {
      comm.tick();
      (void)comm.allreduce(state_value(seed, comm.rank(), iter, 0), mpi::ReduceOp::kSum);
      ++iter;
      if (iter % ckpt_every == 0 || iter == total_iters) {
        if (comm.rank() == 0) max_attempted = std::max(max_attempted, iter);
        const auto bytes = expected_state(seed, comm.rank(), iter, doubles);
        const int version = ops.save(comm, bytes);
        if (comm.rank() == 0) {
          committed.emplace_back(version, iter);
          if (after_commit) after_commit(version);
        }
      }
    }
  }
};

void run_checkpoint(std::uint64_t seed, bool incremental, Digest& digest,
                    Violations& violations) {
  Rng rng(seed ^ 0xC4EC4EC4EC4ULL);
  const int ranks = 1 + static_cast<int>(rng.uniform_index(4));
  const int total_iters = 6 + static_cast<int>(rng.uniform_index(18));
  const int ckpt_every = 1 + static_cast<int>(rng.uniform_index(4));
  const std::size_t doubles = 24 + rng.uniform_index(72);
  const std::size_t block = 64 + rng.uniform_index(3) * 64;

  FaultPlan plan = FaultPlan::from_seed(seed);
  FaultInjector injector(plan);
  MemoryStore inner;
  FaultyStore store(&inner, &injector);

  Checkpointer full(&store, "fuzz", &injector);
  IncrementalCheckpointer inc(&store, "fuzz", block, &injector);
  CkptOps ops;
  if (incremental) {
    ops.save = [&](mpi::Comm& c, std::span<const std::byte> s) { return inc.save(c, s); };
    ops.load = [&](mpi::Comm& c) { return inc.load_latest(c); };
    ops.has = [&](mpi::Comm& c) { return inc.has_snapshot(c); };
    ops.latest = [&] { return inc.latest_version(); };
  } else {
    ops.save = [&](mpi::Comm& c, std::span<const std::byte> s) { return full.save(c, s); };
    ops.load = [&](mpi::Comm& c) { return full.load_latest(c); };
    ops.has = [&](mpi::Comm& c) { return full.has_snapshot(c); };
    ops.latest = [&] { return full.latest_version(); };
  }

  LockstepApp app(seed, total_iters, ckpt_every, doubles, /*check_commit_floor=*/true);
  const auto rank_fn = [&](mpi::Comm& comm) { app.run_rank(comm, ops, violations); };

  std::function<void(int, const mpi::RunResult&)> trace;
  if (std::getenv("SOMPI_FUZZ_DEBUG") != nullptr) {
    trace = [&](int attempt, const mpi::RunResult& result) {
      std::string line = "dbg seed=" + std::to_string(seed) + " attempt=" +
                         std::to_string(attempt) + " completed=" +
                         std::to_string(result.completed ? 1 : 0) + " killed=" +
                         std::to_string(result.killed ? 1 : 0) + " injected=" +
                         std::to_string(injector.injected_count()) + " latest=" +
                         std::to_string(ops.latest()) + " errors=";
      for (const auto& e : result.errors) line += "[" + e + "]";
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  const int attempts = run_with_retries(ranks, rank_fn, plan, injector, violations, trace);

  // Post-mortem over the raw store: the latest committed snapshot must be
  // the final state of every rank.
  if (!violations.any()) {
    Checkpointer verify_full(&inner, "fuzz");
    IncrementalCheckpointer verify_inc(&inner, "fuzz", block);
    verify_final_state(
        ranks,
        [&](mpi::Comm& comm) {
          return incremental ? verify_inc.load_latest(comm) : verify_full.load_latest(comm);
        },
        seed, total_iters, doubles, violations);
  }

  if (std::getenv("SOMPI_FUZZ_DEBUG") != nullptr) {
    std::string line = "dbg seed=" + std::to_string(seed) +
                       " attempts=" + std::to_string(attempts) +
                       " injected=" + std::to_string(injector.injected_count()) +
                       " latency=" + std::to_string(injector.simulated_latency_ms()) +
                       " latest=" + std::to_string(ops.latest()) + " committed=";
    for (const auto& [v, it] : app.committed)
      line += "(" + std::to_string(v) + "," + std::to_string(it) + ")";
    std::vector<std::pair<std::string, std::uint64_t>> streams;
    for (const auto& [k, n] : injector.op_counts()) streams.emplace_back(k, n);
    std::sort(streams.begin(), streams.end());
    for (const auto& [k, n] : streams) line += " " + k + "=" + std::to_string(n);
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  digest.mix(static_cast<std::uint64_t>(ranks));
  digest.mix(static_cast<std::uint64_t>(total_iters));
  digest.mix(static_cast<std::uint64_t>(ckpt_every));
  digest.mix(static_cast<std::uint64_t>(attempts));
  digest.mix(static_cast<std::uint64_t>(app.committed.size()));
  for (const auto& [v, it] : app.committed) {
    digest.mix(static_cast<std::uint64_t>(v));
    digest.mix(static_cast<std::uint64_t>(it));
  }
  digest.mix(injector.injected_count());
  digest.mix(injector.simulated_latency_ms());
  digest.mix(static_cast<std::uint64_t>(ops.latest()));
  for (int r = 0; r < ranks; ++r)
    digest.mix_bytes(expected_state(seed, r, total_iters, doubles));
}

// ---------------------------------------------------------------------------
// Scenario 2: trace replay under forced spot kills.

Digest replay_digest(const ReplayResult& r) {
  Digest d;
  d.mix(r.cost_usd);
  d.mix(r.spot_cost_usd);
  d.mix(r.od_cost_usd);
  d.mix(r.storage_cost_usd);
  d.mix(r.time_h);
  d.mix(r.completed_on_spot);
  d.mix(r.used_od_recovery);
  d.mix(r.recovered_ratio);
  for (const auto& g : r.groups) {
    d.mix(g.name);
    d.mix(g.lifetime_h);
    d.mix(g.completed);
    d.mix(g.killed);
    d.mix(static_cast<std::uint64_t>(g.checkpoints));
    d.mix(g.cost_usd);
    d.mix(g.saved_fraction);
  }
  return d;
}

void run_replay(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x5CE9A7105EEDULL);
  const Catalog catalog = paper_catalog();
  const MarketProfile profile = rng.bernoulli(0.5)
                                    ? paper_market_profile(catalog)
                                    : random_market_profile(catalog, rng);
  const double days = 1.0 + rng.uniform(0.0, 2.0);
  const Market market = generate_market(catalog, profile, days, 0.25, rng());

  Plan plan;
  plan.app = "fuzz";
  plan.step_hours = 0.25;
  plan.deadline_h = 1000.0;
  plan.state_gb = rng.uniform(0.0, 2.0);
  plan.od.type_index = rng.uniform_index(catalog.types().size());
  plan.od.t_h = rng.uniform(2.0, 30.0);
  plan.od.instances = 1 + static_cast<int>(rng.uniform_index(8));
  plan.od.rate_usd_h = rng.uniform(0.2, 5.0);
  plan.od.feasible = true;
  const auto all_groups = catalog.all_groups();
  const std::size_t n_groups = rng.uniform_index(4);  // 0 = pure on-demand run
  for (std::size_t i = 0; i < n_groups; ++i) {
    GroupPlan g;
    g.spec = all_groups[rng.uniform_index(all_groups.size())];
    g.name = catalog.group_name(g.spec) + "#" + std::to_string(i);
    g.instances = 1 + static_cast<int>(rng.uniform_index(4));
    g.t_steps = 4 + static_cast<int>(rng.uniform_index(40));
    g.f_steps = 1 + static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(g.t_steps)));
    g.o_steps = rng.uniform(0.0, 1.5);
    g.r_steps = rng.uniform(0.0, 1.5);
    g.bid_usd = rng.uniform(0.005, 0.6);
    plan.groups.push_back(std::move(g));
  }
  const double start_h = rng.uniform(0.0, days * 24.0);
  const BillingModel billing = static_cast<BillingModel>(rng.uniform_index(3));

  const FaultPlan fplan = FaultPlan::from_seed(seed);
  const FaultInjector injector(fplan);
  ReplayConfig config;
  config.billing = billing;
  config.faults = &injector;
  const ReplayEngine engine(&market, config);

  const ReplayResult r1 = engine.replay(plan, start_h);
  const ReplayResult r2 = engine.replay(plan, start_h);
  if (replay_digest(r1).value() != replay_digest(r2).value())
    violations.record("same-seed replay is not bit-identical");

  // A quiet injector must be indistinguishable from no injector at all.
  const FaultInjector quiet(FaultPlan::quiet(seed));
  ReplayConfig quiet_config = config;
  quiet_config.faults = &quiet;
  ReplayConfig bare_config = config;
  bare_config.faults = nullptr;
  const ReplayResult rq = ReplayEngine(&market, quiet_config).replay(plan, start_h);
  const ReplayResult rn = ReplayEngine(&market, bare_config).replay(plan, start_h);
  if (replay_digest(rq).value() != replay_digest(rn).value())
    violations.record("quiet injector changed the replay outcome");

  const auto in_unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (!std::isfinite(r1.cost_usd) || !std::isfinite(r1.time_h) || r1.time_h < 0.0)
    violations.record("replay produced a non-finite or negative outcome");
  if (r1.od_cost_usd < 0.0 || r1.storage_cost_usd < 0.0)
    violations.record("negative on-demand or storage cost");
  if (!in_unit(r1.recovered_ratio)) violations.record("recovered_ratio outside [0, 1]");
  for (const auto& g : r1.groups)
    if (!in_unit(g.saved_fraction)) violations.record("saved_fraction outside [0, 1]");
  if (!plan.groups.empty() && r1.completed_on_spot == r1.used_od_recovery)
    violations.record("exactly one of completed_on_spot / used_od_recovery must hold");

  // The paper's deadline guarantee, restated for replay: even when every
  // replica dies at its most damaging instant, the on-demand fallback lands
  // within  max_i max_t (t·h + Ratio_i(t)·T_od).
  if (!plan.groups.empty() && r1.used_od_recovery) {
    double bound = 0.0;
    for (const auto& g : plan.groups) {
      const GroupSchedule sched(g.t_steps, g.f_steps, g.o_steps, g.r_steps);
      const int last = static_cast<int>(std::ceil(sched.wall_duration())) + 1;
      for (int t = 0; t <= last; ++t)
        bound = std::max(bound, static_cast<double>(t) * plan.step_hours +
                                    sched.ratio_at(static_cast<double>(t)) * plan.od.t_h);
    }
    if (r1.time_h > bound + 1e-6)
      violations.record("on-demand fallback missed the worst-case deadline bound: " +
                        std::to_string(r1.time_h) + " > " + std::to_string(bound));
  }

  digest.mix(replay_digest(r1).value());
  digest.mix(replay_digest(rq).value());
}

// ---------------------------------------------------------------------------
// The lockstep-oracle harness shared by the planning and serving kinds:
// small solver configs, seeded apps and request pools, the served-vs-oracle
// check and the outcome tally.

OptimizerConfig tiny_optimizer_config() {
  OptimizerConfig opt;
  opt.max_candidates = 2;
  opt.max_groups = 1;
  opt.setup.log_levels = 2;
  opt.setup.failure.samples = 200;
  opt.ratio_bins = 16;
  return opt;
}

ServiceConfig tiny_service_config() {
  ServiceConfig config;
  config.cache.shards = 2;
  config.cache.capacity = 8;
  config.latency_window = 32;
  config.opt = tiny_optimizer_config();
  return config;
}

/// The roomy tier the sharded and wire kinds drive: a seeded shape from the
/// acceptance set {1, 2, 4, 8} shards with a seeded ring salt — the
/// equivalence contract must hold for EVERY one — and budgets no request
/// exhausts. With a 3-request pool the per-shard ceil split of the cache
/// can never evict a fitting key and the queue never sheds, so tier and
/// 1-shard oracle classify every request alike.
ShardedConfig roomy_sharded_config(Rng& rng) {
  const std::size_t shard_choices[] = {1, 2, 4, 8};
  ShardedConfig config;
  config.shards = shard_choices[rng.uniform_index(4)];
  config.vnodes = 16;
  config.salt = rng();
  config.service = tiny_service_config();
  config.service.cache.capacity = 32;
  config.service.max_concurrent_solves = 2;
  config.service.max_queued_solves = 16;
  return config;
}

/// A seeded paper app from the NPB subset the planning kinds draw from.
AppProfile random_paper_app(Rng& rng) {
  const char* names[] = {"BT", "SP", "LU", "FT", "IS"};
  return paper_profile(names[rng.uniform_index(5)]);
}

/// One request per app name, each with a deadline of the app's on-demand
/// baseline × (1.2 + U[0, 3]). `constrain` (optional) runs right after each
/// request's deadline draw, so it may draw constraints in stream order.
std::vector<PlanRequest> request_pool(std::initializer_list<const char*> names, Rng& rng,
                                      const std::function<void(PlanRequest&)>& constrain = {}) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const OnDemandSelector selector(&catalog, &estimator);
  std::vector<PlanRequest> pool;
  for (const char* name : names) {
    PlanRequest r;
    r.app = paper_profile(name);
    r.deadline_h = selector.baseline(r.app).t_h * (1.2 + rng.uniform(0.0, 3.0));
    if (constrain) constrain(r);
    pool.push_back(std::move(r));
  }
  return pool;
}

/// The served-vs-oracle step: mixes the served outcome and epoch, requires
/// the oracle's epoch, then requires the served plan to be
/// fingerprint-identical to `want` and mixes it. A planless response (or a
/// missing oracle plan) is a violation, except an explicit planless shed when
/// `sheds_allowed`. Returns whether the served plan matched.
bool check_lockstep(const std::string& who, const PlanResponse& got, std::uint64_t want_epoch,
                    const Plan* want, bool sheds_allowed, Digest& digest,
                    Violations& violations) {
  digest.mix(std::string(outcome_label(got.outcome)));
  digest.mix(got.epoch);
  if (got.epoch != want_epoch)
    violations.record(who + " and its oracle answered at different epochs");
  if (sheds_allowed && got.outcome == PlanOutcome::kShed) {
    if (got.plan != nullptr) violations.record(who + ": shed response carried a plan");
    return false;
  }
  if (got.plan == nullptr || want == nullptr) {
    violations.record(who + (sheds_allowed ? ": non-shed response carried no plan"
                                           : ": roomy budgets still produced a planless response"));
    return false;
  }
  const std::string fp = plan_fingerprint(*got.plan);
  if (fp != plan_fingerprint(*want)) {
    violations.record(who + ": served plan is not fingerprint-identical to its oracle");
    return false;
  }
  digest.mix(fp);
  return true;
}

/// Every request lands in exactly one outcome class.
void check_tally(const std::string& who, const ServiceStats& stats, Violations& violations) {
  if (stats.requests != stats.hits + stats.solves + stats.dedup_joins + stats.sheds)
    violations.record(who + ": outcome classes do not partition the requests");
}

// ---------------------------------------------------------------------------
// Scenario 3: PlanService under shed pressure and epoch bumps.

void run_service(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x5E121CE5EEDULL);
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  MarketBoard board(generate_market(catalog, paper_market_profile(catalog), 1.5, 0.25, rng()));

  const FaultPlan fplan = FaultPlan::from_seed(seed);
  FaultInjector injector(fplan);
  ServiceConfig config = tiny_service_config();
  config.max_concurrent_solves = 2;
  config.max_queued_solves = 4;
  config.faults = &injector;
  PlanService service(&catalog, &estimator, &board, config);

  // A small request pool; the sequence draws from it with repeats, so cache
  // hits arise naturally — and must stay fingerprint-identical to fresh
  // solves even while epoch bumps race through the sequence.
  const std::vector<PlanRequest> pool = request_pool({"BT", "SP", "FT"}, rng);
  const std::size_t n_requests = 5 + rng.uniform_index(4);

  for (std::size_t i = 0; i < n_requests; ++i) {
    if (injector.epoch_bump_at(i)) board.ingest({});  // mid-sequence invalidation
    const PlanRequest& request = pool[rng.uniform_index(pool.size())];
    const MarketSnapshot snap = board.snapshot();
    const PlanResponse response = service.serve(request);
    std::optional<Plan> fresh;
    if (response.plan != nullptr) fresh = service.solve(canonicalized(request), *snap.market);
    check_lockstep("service", response, snap.epoch, fresh ? &*fresh : nullptr,
                   /*sheds_allowed=*/true, digest, violations);
  }

  const ServiceStats stats = service.stats();
  check_tally("service", stats, violations);
  digest.mix(stats.hits);
  digest.mix(stats.solves);
  digest.mix(stats.sheds);
  digest.mix(stats.stale_evicted);
}

// ---------------------------------------------------------------------------
// Scenario 4: the optimizer is a pure function of its inputs.

void run_plan(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x71A2DE7E12ULL);
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const MarketProfile profile = rng.bernoulli(0.5)
                                    ? paper_market_profile(catalog)
                                    : random_market_profile(catalog, rng);
  const Market market = generate_market(catalog, profile, 1.0 + rng.uniform(0.0, 1.0), 0.25,
                                        rng());
  const AppProfile app = random_paper_app(rng);
  const double deadline_h =
      OnDemandSelector(&catalog, &estimator).baseline(app).t_h * (1.2 + rng.uniform(0.0, 3.0));

  const SompiOptimizer optimizer(&catalog, &estimator, tiny_optimizer_config());
  const std::string fp = plan_fingerprint(optimizer.optimize(app, market, deadline_h));
  if (fp != plan_fingerprint(optimizer.optimize(app, market, deadline_h)))
    violations.record("same-seed re-solve changed the plan fingerprint");
  digest.mix(fp);
}

// ---------------------------------------------------------------------------
// Scenario 5: the feed pipeline under tick chaos.
//
// A recorded market is split into a visible prefix (priming the board) and a
// hidden tail (the "live" feed). The tail is replayed twice through
// identically seeded per-group chaos chains: once synchronously from a
// single round-robin consumer, once through the bounded queue from several
// producer threads. Both runs must commit bit-identical price matrices and
// epoch sequences — the pipeline's determinism gate.

/// Round-robin one tick from each per-group source until all are exhausted,
/// delivering them through `deliver`. Per-group order is preserved (the only
/// order determinism is defined over); cross-group order is deliberately
/// interleaved.
void drain_round_robin(std::vector<std::unique_ptr<feed::TickSource>>& sources,
                       const std::function<void(const feed::Tick&)>& deliver) {
  bool any = true;
  while (any) {
    any = false;
    for (auto& source : sources) {
      if (!source) continue;
      if (std::optional<feed::Tick> tick = source->next()) {
        deliver(*tick);
        any = true;
      } else {
        source.reset();
      }
    }
  }
}

void run_feed(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0xFEEDD1CE5ULL);
  const Catalog catalog = paper_catalog();
  const Market full = generate_market(catalog, paper_market_profile(catalog),
                                      1.0 + rng.uniform(0.0, 1.0), 0.25, rng());
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = len / 2;
  const std::vector<CircleGroupSpec> all_groups = catalog.all_groups();

  feed::FeedConfig fcfg;
  fcfg.window_steps = 16 + rng.uniform_index(32);
  fcfg.publish_every = 4 + rng.uniform_index(12);
  fcfg.late_horizon = 2 + rng.uniform_index(4);
  fcfg.queue_capacity = 32 + rng.uniform_index(96);
  fcfg.estimate_bid_levels = 4;
  fcfg.estimation.samples = 64;
  fcfg.estimation.horizon_steps = 24;
  const FaultPlan fplan = FaultPlan::from_seed(seed);

  const auto chaos_chains = [&](FaultInjector& injector) {
    // One replay + chaos chain per group: decision streams are keyed by
    // group, so the post-chaos stream is sharding-independent.
    std::vector<std::unique_ptr<feed::TickSource>> inners;
    std::vector<std::unique_ptr<feed::TickSource>> chains;
    for (const CircleGroupSpec& g : all_groups) {
      inners.push_back(std::make_unique<feed::ReplayTickSource>(
          &full, std::vector<CircleGroupSpec>{g}, visible, len - visible));
      chains.push_back(
          std::make_unique<feed::ChaosTickSource>(inners.back().get(), &injector));
    }
    return std::pair(std::move(inners), std::move(chains));
  };

  // --- Run A: synchronous, single consumer, interleaved group order. ---
  MarketBoard board_a(full.window(0, visible));
  BoardFanout fanout_a({&board_a});
  feed::FeedPipeline pipe_a(&fanout_a, fcfg);
  FaultInjector injector_a(fplan);
  {
    auto [inners, chains] = chaos_chains(injector_a);
    drain_round_robin(chains, [&](const feed::Tick& t) { pipe_a.offer(t); });
  }
  pipe_a.flush();

  // --- Run B: multi-producer through the bounded queue. ---
  MarketBoard board_b(full.window(0, visible));
  BoardFanout fanout_b({&board_b});
  feed::FeedPipeline pipe_b(&fanout_b, fcfg);
  FaultInjector injector_b(fplan);
  {
    auto [inners, chains] = chaos_chains(injector_b);
    const std::size_t producers = 2 + rng.uniform_index(3);
    pipe_b.start();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        // Producer p owns groups p, p+producers, ... — round-robin within
        // its shard so per-group FIFO order is preserved.
        std::vector<std::unique_ptr<feed::TickSource>> shard;
        for (std::size_t g = p; g < chains.size(); g += producers)
          shard.push_back(std::move(chains[g]));
        drain_round_robin(shard, [&](const feed::Tick& t) { pipe_b.enqueue(t); });
      });
    }
    for (auto& t : threads) t.join();
    pipe_b.stop();
  }
  pipe_b.flush();

  // --- Invariant: producer count is invisible. ---
  if (pipe_a.commit_digest() != pipe_b.commit_digest())
    violations.record("multi-producer run diverged from the synchronous run (digest)");
  const feed::FeedStats stats_a = pipe_a.stats();
  const feed::FeedStats stats_b = pipe_b.stats();
  if (stats_a.ticks_ingested != stats_b.ticks_ingested ||
      stats_a.committed_steps != stats_b.committed_steps ||
      stats_a.committed_values != stats_b.committed_values ||
      stats_a.gaps_filled != stats_b.gaps_filled ||
      stats_a.duplicates_dropped != stats_b.duplicates_dropped ||
      stats_a.late_dropped != stats_b.late_dropped ||
      stats_a.epochs_published != stats_b.epochs_published)
    violations.record("multi-producer run diverged from the synchronous run (stats)");
  const auto log_a = pipe_a.publish_log();
  const auto log_b = pipe_b.publish_log();
  if (log_a.size() != log_b.size())
    violations.record("publish logs differ in length across producer counts");
  for (std::size_t i = 0; i < std::min(log_a.size(), log_b.size()); ++i)
    if (log_a[i].epoch != log_b[i].epoch || log_a[i].rows != log_b[i].rows ||
        log_a[i].end_step != log_b[i].end_step)
      violations.record("publish logs diverged across producer counts");

  // --- Invariant: conservation laws. ---
  const std::size_t groups_n = all_groups.size();
  if (stats_a.ticks_ingested !=
      stats_a.committed_values + stats_a.duplicates_dropped + stats_a.late_dropped)
    violations.record("tick conservation violated");
  if (stats_a.committed_values + stats_a.gaps_filled !=
      stats_a.committed_steps * groups_n)
    violations.record("commit conservation violated");

  // --- Invariant: without chaos the committed market IS the recorded one. ---
  MarketBoard board_c(full.window(0, visible));
  BoardFanout fanout_c({&board_c});
  feed::FeedPipeline pipe_c(&fanout_c, fcfg);
  feed::ReplayTickSource clean(&full, {}, visible, len - visible);
  pipe_c.ingest(clean);
  pipe_c.flush();
  const feed::FeedStats stats_c = pipe_c.stats();
  if (stats_c.gaps_filled != 0 || stats_c.duplicates_dropped != 0 ||
      stats_c.late_dropped != 0)
    violations.record("clean replay reported chaos counters");
  const MarketSnapshot snap_c = board_c.snapshot();
  bool clean_match = snap_c.market->trace({0, 0}).steps() == len;
  if (clean_match)
    for (const CircleGroupSpec& g : all_groups)
      for (std::size_t s = 0; s < len && clean_match; ++s)
        if (snap_c.market->trace(g).price(s) != full.trace(g).price(s))
          clean_match = false;
  if (!clean_match)
    violations.record("clean replay did not reconstruct the recorded market bit-identically");

  // --- Invariant: plans at feed-published epochs are cache-coherent. ---
  const ExecTimeEstimator estimator;
  PlanService service(&catalog, &estimator, &board_a, tiny_service_config());
  const OnDemandSelector selector(&catalog, &estimator);
  PlanRequest request;
  request.app = paper_profile("BT");
  request.deadline_h = selector.baseline(request.app).t_h * (1.2 + rng.uniform(0.0, 2.0));
  const MarketSnapshot snap_a = board_a.snapshot();
  const PlanResponse response = service.serve(request);
  if (response.outcome == PlanOutcome::kShed || response.plan == nullptr) {
    violations.record("un-shed service shed a request at a feed-published epoch");
  } else {
    if (response.epoch != snap_a.epoch)
      violations.record("service answered at an unexpected feed epoch");
    const Plan fresh = service.solve(canonicalized(request), *snap_a.market);
    if (plan_fingerprint(*response.plan) != plan_fingerprint(fresh))
      violations.record("plan served on a feed-published market is not "
                        "fingerprint-identical to a fresh solve");
  }

  digest.mix(pipe_a.commit_digest());
  digest.mix(stats_a.ticks_ingested);
  digest.mix(stats_a.committed_steps);
  digest.mix(stats_a.committed_values);
  digest.mix(stats_a.gaps_filled);
  digest.mix(stats_a.duplicates_dropped);
  digest.mix(stats_a.late_dropped);
  digest.mix(stats_a.epochs_published);
  for (const feed::PublishRecord& r : log_a) {
    digest.mix(r.epoch);
    digest.mix(r.rows);
    digest.mix(r.end_step);
  }
  const feed::FeedEstimates estimates = pipe_a.latest_estimates();
  digest.mix(estimates.window_end_step);
  for (const feed::GroupEstimate& e : estimates.groups) {
    digest.mix(e.window_max_price);
    for (const double v : e.expected_price) digest.mix(v);
    for (const double v : e.mtbf_steps) digest.mix(v);
  }
  if (response.plan != nullptr) digest.mix(plan_fingerprint(*response.plan));
}

// ---------------------------------------------------------------------------
// Scenario 6: the multi-level checkpoint hierarchy under chaos.
//
// The scenario-0 lockstep app runs over a MultiLevelCheckpointer (node-local
// cache + peer redundancy + S3-sim remote) while the plan's multi-level
// channels fire: single-node cache wipes, peer shard losses, and flush kills
// that leave remote versions uncommitted. Per version at most ONE of
// {single-rank cache wipe, single shard loss} is injected, so the newest
// committed version is always recoverable at the cache level — which makes
// the post-mortem gates exact:
//
//   * the final restore returns the final iteration's exact bytes WITHOUT a
//     single billed S3-sim GET (single-rank losses resolve from peers);
//   * after a total cache loss, the newest REMOTE-committed version restores
//     with exactly `ranks` GETs and bytes matching a recorded commit — or,
//     when every flush was killed, load_latest reports nothing rather than
//     serving a half-flushed version;
//   * the optimizer's multi-level policy set never costs more than the
//     single-level one (exact search over a superset), and the empty policy
//     list keeps the degenerate fingerprint byte-identical.

void run_multilevel(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x3117E7E1ULL);
  const int ranks = 2 + static_cast<int>(rng.uniform_index(4));
  const int total_iters = 6 + static_cast<int>(rng.uniform_index(14));
  const int ckpt_every = 1 + static_cast<int>(rng.uniform_index(4));
  const std::size_t doubles = 24 + rng.uniform_index(72);
  const RedundancyScheme scheme = (ranks >= 3 && rng.bernoulli(0.5))
                                      ? RedundancyScheme::kXor
                                      : RedundancyScheme::kPartner;
  const bool rle = rng.bernoulli(0.5);

  const FaultPlan plan = FaultPlan::from_seed(seed);
  FaultInjector injector(plan);
  MemoryStore cache;
  S3Sim remote;
  MultiLevelConfig mcfg;
  mcfg.cache = &cache;
  mcfg.redundancy = scheme;
  mcfg.compression.mode = rle ? CompressionMode::kRle : CompressionMode::kNone;
  mcfg.compression.cpu_seconds_per_gb = 4.0;
  // Synchronous flush keeps every attempt's op sequence a pure function of
  // the committed-save sequence (an async worker would interleave
  // nondeterministically with the injector's per-key streams).
  MultiLevelCheckpointer ml(&remote, "fuzz-ml", mcfg, &injector);

  const auto cache_blob_key = [](int version, int rank) {
    return "fuzz-ml/l0/v" + std::to_string(version) + "/rank" + std::to_string(rank);
  };
  const auto shard_key = [](int version, int rank) {
    return "fuzz-ml/l1/v" + std::to_string(version) + "/shard" + std::to_string(rank);
  };

  CkptOps ops;
  ops.save = [&](mpi::Comm& c, std::span<const std::byte> s) { return ml.save(c, s); };
  ops.load = [&](mpi::Comm& c) { return ml.load_latest(c); };
  ops.has = [&](mpi::Comm& c) { return ml.has_snapshot(c); };
  LockstepApp app(seed, total_iters, ckpt_every, doubles, /*check_commit_floor=*/false);
  // Post-save chaos, one loss per version at most (see the header comment):
  // a whole node dies (blob + own shard), or one peer shard rots away. Other
  // ranks are already blocked on the next collective, so the wipe races with
  // no storage traffic.
  app.after_commit = [&](int version) {
    const std::string vtag = std::to_string(version);
    if (injector.fires(Channel::kCacheWipe, "wipe/v" + vtag)) {
      std::uint64_t s = seed ^ (0x51C7ULL + static_cast<std::uint64_t>(version));
      const int victim = static_cast<int>(splitmix64(s) % static_cast<std::uint64_t>(ranks));
      cache.remove(cache_blob_key(version, victim));
      cache.remove(shard_key(version, victim));
    } else if (injector.fires(Channel::kPartnerLoss, "peer/v" + vtag)) {
      std::uint64_t s = seed ^ (0x9EE2ULL + static_cast<std::uint64_t>(version));
      const int victim = static_cast<int>(splitmix64(s) % static_cast<std::uint64_t>(ranks));
      cache.remove(shard_key(version, victim));
    }
  };
  const auto rank_fn = [&](mpi::Comm& comm) { app.run_rank(comm, ops, violations); };

  const int attempts = run_with_retries(ranks, rank_fn, plan, injector, violations);

  // Post-mortem, chaos disabled. The newest committed version carries the
  // final iteration and is cache-recoverable by construction, so the restore
  // must return the final bytes without one billed S3-sim GET.
  MultiLevelCheckpointer verify(&remote, "fuzz-ml", mcfg, nullptr);
  if (!violations.any()) {
    const std::uint64_t gets_before = remote.get_count();
    verify_final_state(
        ranks, [&](mpi::Comm& comm) { return verify.load_latest(comm); }, seed, total_iters,
        doubles, violations);
    if (remote.get_count() != gets_before)
      violations.record("cache-level restore performed " +
                        std::to_string(remote.get_count() - gets_before) +
                        " billed S3-sim GET(s); single-rank losses must resolve "
                        "from peers");
  }

  // Total cache loss: only REMOTE-committed versions may serve, each GET
  // billed, and a version whose flush was killed must stay invisible.
  if (!violations.any()) {
    for (const std::string& key : cache.list("")) cache.remove(key);
    std::vector<int> remote_versions;
    for (const std::string& key : remote.list("fuzz-ml/v"))
      if (key.size() > 7 && key.compare(key.size() - 7, 7, "/COMMIT") == 0)
        remote_versions.push_back(std::stoi(key.substr(9, key.size() - 7 - 9)));
    std::sort(remote_versions.begin(), remote_versions.end());

    MultiLevelCheckpointer cold(&remote, "fuzz-ml", mcfg, nullptr);
    if (remote_versions.empty()) {
      const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
        if (cold.has_snapshot(comm) || cold.load_latest(comm))
          violations.record("restore served a snapshot though no version was "
                            "remote-committed and the cache is gone");
      });
      if (!result.completed && !violations.any())
        violations.record("chaos-free cold-restore world failed");
    } else {
      const int newest = remote_versions.back();
      int want_iter = -1;
      for (const auto& [v, it] : app.committed)
        if (v == newest) want_iter = it;
      if (want_iter < 0) {
        violations.record("remote-committed version " + std::to_string(newest) +
                          " was never recorded as committed");
      } else {
        const std::uint64_t gets_before = remote.get_count();
        const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
          const auto blob = cold.load_latest(comm);
          if (!blob) {
            violations.record("remote-committed snapshot did not restore after "
                              "total cache loss");
            return;
          }
          const auto want = expected_state(seed, comm.rank(), want_iter, doubles);
          if (*blob != want)
            violations.record("remote restore of rank " + std::to_string(comm.rank()) +
                              " does not match the bytes committed at iteration " +
                              std::to_string(want_iter));
        });
        if (!result.completed && !violations.any())
          violations.record("chaos-free cold-restore world failed");
        if (violations.any() == false &&
            remote.get_count() - gets_before != static_cast<std::uint64_t>(ranks))
          violations.record("remote restore billed " +
                            std::to_string(remote.get_count() - gets_before) +
                            " GETs, expected exactly one per rank");
      }
    }
  }

  // Dominance gate: the multi-level policy set is a superset of {s3} and the
  // search is exact, so its optimum can never cost more — and the empty
  // policy list must stay fingerprint-identical to an explicit {s3}.
  Plan plan_single;
  Plan plan_multi;
  if (!violations.any()) {
    const Catalog catalog = paper_catalog();
    const ExecTimeEstimator estimator;
    const Market market = generate_market(catalog, random_market_profile(catalog, rng),
                                          1.0 + rng.uniform(0.0, 1.0), 0.25, rng());
    const AppProfile app = random_paper_app(rng);
    const double deadline_h = OnDemandSelector(&catalog, &estimator).baseline(app).t_h *
                              (1.2 + rng.uniform(0.0, 3.0));

    OptimizerConfig config = tiny_optimizer_config();
    const SompiOptimizer single(&catalog, &estimator, config);
    config.ckpt_policies = {CkptPolicy::single_s3()};
    const SompiOptimizer explicit_s3(&catalog, &estimator, config);
    config.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                            CkptPolicy::cache_xor_s3()};
    const SompiOptimizer multi(&catalog, &estimator, config);

    plan_single = single.optimize(app, market, deadline_h);
    plan_multi = multi.optimize(app, market, deadline_h);
    if (plan_multi.expected.cost_usd > plan_single.expected.cost_usd)
      violations.record("multi-level policy plan costs more than the single-level "
                        "plan despite an exact search over a superset");
    if (plan_fingerprint(plan_single) !=
        plan_fingerprint(explicit_s3.optimize(app, market, deadline_h)))
      violations.record("explicit {s3} policy list changed the degenerate plan "
                        "fingerprint");
  }

  const FlushStats fs = ml.flush_stats();
  const RecoveryStats rs = verify.recovery_stats();
  digest.mix(static_cast<std::uint64_t>(ranks));
  digest.mix(static_cast<std::uint64_t>(total_iters));
  digest.mix(static_cast<std::uint64_t>(ckpt_every));
  digest.mix(std::string(redundancy_scheme_label(scheme)));
  digest.mix(rle);
  digest.mix(static_cast<std::uint64_t>(attempts));
  digest.mix(static_cast<std::uint64_t>(app.committed.size()));
  for (const auto& [v, it] : app.committed) {
    digest.mix(static_cast<std::uint64_t>(v));
    digest.mix(static_cast<std::uint64_t>(it));
  }
  digest.mix(injector.injected_count());
  digest.mix(fs.flushes_started);
  digest.mix(fs.flushes_completed);
  digest.mix(fs.flushes_killed);
  digest.mix(fs.bytes_before_compression);
  digest.mix(fs.bytes_flushed);
  digest.mix(rs.cache_loads);
  digest.mix(rs.peer_rebuilds);
  digest.mix(rs.remote_loads);
  digest.mix(remote.put_count());
  digest.mix(remote.get_count());
  digest.mix(remote.bytes_uploaded());
  digest.mix(remote.bytes_downloaded());
  digest.mix(plan_fingerprint(plan_single));
  digest.mix(plan_fingerprint(plan_multi));
  for (int r = 0; r < ranks; ++r)
    digest.mix_bytes(expected_state(seed, r, total_iters, doubles));
}

// ---------------------------------------------------------------------------
// Scenario 7: a random heterogeneous platform through the whole stack.
//
// A seeded random platform (perturbed host rates, shared/dedicated links,
// derated zones) is rendered to the declarative text format, reparsed, and
// driven through the estimator and the optimizer. Invariants: the
// render→parse round trip is lossless (zero skipped lines, bit-identical
// effective specs at several flow counts); injected garbage lines are
// skipped and counted without disturbing the well-formed declarations;
// Platform::flat reproduces the catalog-only estimator 0 ULP; shared links
// never gain bandwidth from extra flows; allreduce composes as exactly two
// bcasts; and the plan solved over the random platform is bit-identical
// across repeated solves and thread counts.

/// Lossless double → text for the platform format: max_digits10 round-trips
/// the exact bit pattern through the parser's strtod.
std::string platform_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render_platform(const platform::Platform& p) {
  std::string text;
  for (const platform::Host& h : p.hosts())
    text += "host " + h.type + " gips=" + platform_number(h.gips_per_core) +
            " nic_gbps=" + platform_number(h.nic_gbps) +
            " lat_us=" + platform_number(h.nic_latency_us) +
            " disk_mbps=" + platform_number(h.disk_mbps) + "\n";
  for (const platform::Link& l : p.links())
    text += "link " + l.name + " gbps=" + platform_number(l.gbps) +
            " lat_us=" + platform_number(l.latency_us) + (l.shared ? " shared" : "") + "\n";
  for (const platform::ZoneNode& z : p.zones())
    text += "zone " + z.name + " intra=" + p.link(z.intra_link).name +
            " uplink=" + p.link(z.uplink).name +
            " compute_scale=" + platform_number(z.compute_scale) + "\n";
  return text;
}

platform::Platform random_platform(const Catalog& catalog, Rng& rng) {
  std::vector<platform::Host> hosts;
  for (const InstanceType& t : catalog.types()) {
    if (rng.bernoulli(0.2)) continue;  // unmodeled type: catalog fallback path
    hosts.push_back(platform::Host{t.name, t.gips_per_core * rng.uniform(0.6, 1.1),
                                   t.net_gbps * rng.uniform(0.5, 1.5),
                                   t.net_latency_us * rng.uniform(0.5, 2.0),
                                   t.io_mbps * rng.uniform(0.5, 1.5)});
  }
  const std::size_t n_links = 2 + rng.uniform_index(3);
  std::vector<platform::Link> links;
  for (std::size_t i = 0; i < n_links; ++i)
    links.push_back(platform::Link{"l" + std::to_string(i), rng.uniform(0.5, 50.0),
                                   rng.uniform(0.0, 1000.0), rng.bernoulli(0.5)});
  std::vector<platform::ZoneNode> zones;
  for (const Zone& z : catalog.zones()) {
    if (rng.bernoulli(0.2)) continue;  // unmodeled zone: flat fallback path
    zones.push_back(platform::ZoneNode{z.name, rng.uniform_index(n_links),
                                       rng.uniform_index(n_links), rng.uniform(0.7, 1.0)});
  }
  return platform::Platform(std::move(hosts), std::move(links), std::move(zones));
}

void mix_spec(Digest& digest, const platform::EffectiveSpec& s) {
  digest.mix(static_cast<std::uint64_t>(s.cores));
  digest.mix(s.gips_per_core);
  digest.mix(s.net_gbps);
  digest.mix(s.net_latency_us);
  digest.mix(s.io_mbps);
  digest.mix(s.uplink_gbps);
  digest.mix(s.uplink_latency_us);
}

bool specs_identical(const platform::EffectiveSpec& a, const platform::EffectiveSpec& b) {
  return a.cores == b.cores &&
         std::bit_cast<std::uint64_t>(a.gips_per_core) ==
             std::bit_cast<std::uint64_t>(b.gips_per_core) &&
         std::bit_cast<std::uint64_t>(a.net_gbps) == std::bit_cast<std::uint64_t>(b.net_gbps) &&
         std::bit_cast<std::uint64_t>(a.net_latency_us) ==
             std::bit_cast<std::uint64_t>(b.net_latency_us) &&
         std::bit_cast<std::uint64_t>(a.io_mbps) == std::bit_cast<std::uint64_t>(b.io_mbps) &&
         std::bit_cast<std::uint64_t>(a.uplink_gbps) ==
             std::bit_cast<std::uint64_t>(b.uplink_gbps) &&
         std::bit_cast<std::uint64_t>(a.uplink_latency_us) ==
             std::bit_cast<std::uint64_t>(b.uplink_latency_us);
}

void run_platform(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x9E37A7F4C2B1ULL);
  const Catalog catalog = paper_catalog();
  const platform::Platform plat = random_platform(catalog, rng);

  // Render → parse round trip: lossless, no skipped lines, bit-identical
  // effective specs at several flow counts.
  const std::string text = render_platform(plat);
  platform::PlatformParseStats stats;
  const platform::Platform reparsed = platform::parse_platform(text, &stats);
  if (stats.skipped() != 0) violations.record("round-tripped platform text has skipped lines");
  if (stats.hosts_parsed != plat.hosts().size() || stats.links_parsed != plat.links().size() ||
      stats.zones_parsed != plat.zones().size())
    violations.record("round trip changed the platform entity counts");
  for (const InstanceType& type : catalog.types()) {
    for (const Zone& zone : catalog.zones()) {
      for (const int flows : {1, 3, 17}) {
        const platform::EffectiveSpec a = plat.effective(type, zone.name, flows);
        const platform::EffectiveSpec b = reparsed.effective(type, zone.name, flows);
        if (!specs_identical(a, b))
          violations.record("round trip changed an effective spec: " + type.name + "/" +
                            zone.name);
        if (flows == 1) mix_spec(digest, a);
        // Fair sharing can only take bandwidth away as flows contend.
        const platform::EffectiveSpec crowded = plat.effective(type, zone.name, 64);
        if (crowded.net_gbps > a.net_gbps || crowded.uplink_gbps > a.uplink_gbps)
          violations.record("extra flows increased a fair-share bandwidth");
      }
    }
  }

  // Lenient parsing: seeded garbage lines are skipped and counted without
  // disturbing one well-formed declaration.
  {
    std::string corrupted = text;
    const std::size_t garbage = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < garbage; ++i) {
      switch (rng.uniform_index(3)) {
        case 0: corrupted += "router r" + std::to_string(i) + " gbps=1\n"; break;
        case 1: corrupted += "host\n"; break;
        default: corrupted += "link g" + std::to_string(i) + " gbps=fast\n"; break;
      }
    }
    platform::PlatformParseStats cstats;
    (void)platform::parse_platform(corrupted, &cstats);
    if (cstats.skipped() != garbage)
      violations.record("garbage lines were not all skipped-with-counter");
    if (cstats.hosts_parsed != stats.hosts_parsed || cstats.links_parsed != stats.links_parsed ||
        cstats.zones_parsed != stats.zones_parsed)
      violations.record("garbage lines disturbed well-formed declarations");
    digest.mix(static_cast<std::uint64_t>(cstats.skipped()));
  }

  // Flat anchor: the flat platform reproduces the catalog-only estimator
  // 0 ULP on every (app, type, zone) profile component.
  const AppProfile app = random_paper_app(rng);
  const platform::Platform flat = platform::Platform::flat(catalog);
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator flat_est(&flat);
  for (const InstanceType& type : catalog.types()) {
    for (const Zone& zone : catalog.zones()) {
      if (std::bit_cast<std::uint64_t>(legacy.hours(app, type)) !=
          std::bit_cast<std::uint64_t>(flat_est.hours(app, type, zone.name)))
        violations.record("flat platform drifted from the catalog estimator: hours");
      const CheckpointCosts a = legacy.checkpoint_costs(app, type);
      const CheckpointCosts b = flat_est.checkpoint_costs(app, type, zone.name);
      if (std::bit_cast<std::uint64_t>(a.checkpoint_h) !=
              std::bit_cast<std::uint64_t>(b.checkpoint_h) ||
          std::bit_cast<std::uint64_t>(a.recovery_h) !=
              std::bit_cast<std::uint64_t>(b.recovery_h))
        violations.record("flat platform drifted from the catalog estimator: checkpoint");
    }
  }

  // Collective composition: allreduce is exactly two bcasts, bit for bit.
  {
    const platform::NetworkModel net(&plat);
    const InstanceType& type = catalog.type(rng.uniform_index(catalog.types().size()));
    const Zone& zone = catalog.zones()[rng.uniform_index(catalog.zones().size())];
    const std::size_t bytes = 1 + rng.uniform_index(1 << 20);
    const int ranks = 1 + static_cast<int>(rng.uniform_index(64));
    const double bc = net.bcast_seconds(type, zone.name, bytes, ranks);
    if (std::bit_cast<std::uint64_t>(net.allreduce_seconds(type, zone.name, bytes, ranks)) !=
        std::bit_cast<std::uint64_t>(2.0 * bc))
      violations.record("allreduce is not exactly two bcasts");
    digest.mix(bc);
  }

  // The optimizer over the random platform is a pure function: repeated
  // solves produce bit-identical plan fingerprints.
  {
    const ExecTimeEstimator estimator(&plat);
    const double deadline_h =
        OnDemandSelector(&catalog, &legacy).baseline(app).t_h * (2.0 + rng.uniform(0.0, 3.0));
    const Market market =
        generate_market(catalog, random_market_profile(catalog, rng), 1.0, 0.25, rng());
    const SompiOptimizer optimizer(&catalog, &estimator, tiny_optimizer_config());
    const std::string fp = plan_fingerprint(optimizer.optimize(app, market, deadline_h));
    if (fp != plan_fingerprint(optimizer.optimize(app, market, deadline_h)))
      violations.record("same-platform re-solve changed the plan fingerprint");
    digest.mix(fp);
  }
}

// ---------------------------------------------------------------------------
// Scenario 8: the sharded serving tier vs its single-shard oracle.

void run_sharded(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x54A2DED5EEDULL);
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), 1.5, 0.25, rng());

  const ShardedConfig config = roomy_sharded_config(rng);
  ShardedConfig oracle_config = config;
  oracle_config.shards = 1;
  ShardedPlanService tier(&catalog, &estimator, market, config);
  ShardedPlanService oracle(&catalog, &estimator, market, oracle_config);

  const std::vector<PlanRequest> pool = request_pool({"BT", "SP", "FT"}, rng);

  digest.mix(config.shards);
  bool wiped = false;
  const std::size_t n_requests = 6 + rng.uniform_index(7);
  for (std::size_t i = 0; i < n_requests; ++i) {
    if (rng.bernoulli(0.25)) {
      // Identical updates through both fan-outs: the two deployments must
      // stay on one (epoch → market) timeline.
      const std::vector<PriceUpdate> updates{
          PriceUpdate{{0, 0}, {0.01 + rng.uniform(0.0, 0.05)}}};
      tier.fanout().ingest(updates);
      oracle.fanout().ingest(updates);
    }
    if (rng.bernoulli(0.15)) {
      // Chaos: a seeded shard loses its whole cache. Fingerprints must
      // survive; the one-solve economy is legitimately waived below.
      tier.shard(rng.uniform_index(tier.shard_count())).wipe_cache();
      wiped = true;
    }
    const PlanRequest& request = pool[rng.uniform_index(pool.size())];
    const PlanResponse got =
        rng.bernoulli(0.5)
            ? tier.serve_on(rng.uniform_index(tier.shard_count()), request)
            : tier.serve(request);
    const PlanResponse want = oracle.serve(request);
    // The headline invariant: bit-identical to the single-shard oracle.
    check_lockstep("tier", got, want.epoch, want.plan.get(), /*sheds_allowed=*/false, digest,
                   violations);
  }

  // Conservation: per-shard counters sum to the aggregate; the outcome
  // classes partition the requests; the ledger balances the solve economy.
  const ShardedStats stats = tier.stats();
  if (stats.total.requests != n_requests)
    violations.record("tier request counter lost a request");
  check_tally("tier", stats.total, violations);
  std::uint64_t sum_requests = 0;
  for (const ServiceStats& shard : stats.per_shard) sum_requests += shard.requests;
  if (sum_requests != stats.total.requests)
    violations.record("per-shard request counters do not sum to the aggregate");
  if (stats.routed + stats.sprayed != stats.total.requests)
    violations.record("front-door counters do not sum to the aggregate");
  if (!wiped && stats.duplicate_solves != 0)
    violations.record("duplicate solve without cache-wipe chaos");
  if (stats.total.solves != tier.distinct_solves() + stats.duplicate_solves)
    violations.record("solve ledger does not balance the solve counter");
  digest.mix(stats.total.hits);
  digest.mix(stats.total.solves);
  digest.mix(stats.duplicate_solves);
  digest.mix(stats.forwarded);
}

// ---------------------------------------------------------------------------
// Scenario 10: warm-start re-planning is invisible (DESIGN.md §14).
//
// One board under a random epoch-delta stream — dirty-group sets of random
// size, including empty forced bumps that move the epoch but no history —
// served by a warm service and checked against the cold solve() oracle in
// lockstep. Invariants:
//   * every served plan is fingerprint-identical to a cold solve of its
//     snapshot (warm starts must be invisible);
//   * the first solve of a scope reuses nothing; a re-plan's table span
//     (reused + built) never changes (the candidate-set size is pinned by
//     the deadline filter); a CLEAN bump (no group history moved since the
//     scope's last solve) rebuilds zero tables;
//   * replan_count equals the independently tracked re-solve count.
// The digest mixes fingerprints, epochs, outcomes and the warm accounting.

void run_warmstart(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x3A12B0075EEDULL);
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  MarketBoard board(generate_market(catalog, paper_market_profile(catalog), 1.5, 0.25, rng()));

  PlanService warm(&catalog, &estimator, &board, tiny_service_config());

  const std::vector<PlanRequest> pool = request_pool({"BT", "SP"}, rng, [&](PlanRequest& r) {
    if (rng.bernoulli(0.4)) {
      // Constrained scopes go through the optimizer's type filter — the
      // warm path must be invisible there too.
      const auto& types = catalog.types();
      r.allowed_types = {types[rng.uniform_index(types.size())].name,
                         types[rng.uniform_index(types.size())].name};
    }
  });

  struct ScopeState {
    std::string key;
    bool solved = false;
    bool dirty = false;   ///< some group history moved since the last solve
    std::size_t span = 0; ///< tables_reused + tables_built of the first solve
  };
  std::vector<ScopeState> scopes;
  const auto scope_state = [&](const std::string& key) -> ScopeState& {
    for (ScopeState& s : scopes)
      if (s.key == key) return s;
    scopes.push_back(ScopeState{key, false, false, 0});
    return scopes.back();
  };

  std::uint64_t expected_replans = 0;
  const std::size_t n_rounds = 3 + rng.uniform_index(2);
  for (std::size_t round = 0; round < n_rounds; ++round) {
    if (round > 0) {
      std::vector<PriceUpdate> updates;
      for (const CircleGroupSpec& spec : catalog.all_groups()) {
        if (!rng.bernoulli(0.2)) continue;
        std::vector<double> prices;
        const std::size_t n = 1 + rng.uniform_index(2);
        for (std::size_t s = 0; s < n; ++s) prices.push_back(0.02 + rng.uniform(0.0, 1.5));
        updates.push_back(PriceUpdate{spec, std::move(prices)});
      }
      // Empty = forced invalidation: the epoch bumps, the versions stay put.
      board.ingest(updates);
      if (!updates.empty())
        for (ScopeState& s : scopes) s.dirty = true;
    }
    for (const PlanRequest& request : pool) {
      const MarketSnapshot snap = board.snapshot();
      const PlanResponse r = warm.serve(request);
      const Plan cold = warm.solve(canonicalized(request), *snap.market);
      if (!check_lockstep("warm service", r, snap.epoch, &cold,
                          /*sheds_allowed=*/false, digest, violations))
        continue;
      if (r.outcome != PlanOutcome::kSolved) continue;

      ScopeState& st = scope_state(canonical_key(canonicalized(request)));
      const PlanStats& ws = r.plan->stats;
      const std::size_t span = ws.tables_reused + ws.tables_built;
      if (!st.solved) {
        st.span = span;
        if (ws.tables_reused != 0)
          violations.record("first solve of a scope reused tables from nowhere");
      } else {
        ++expected_replans;
        if (span != st.span)
          violations.record("re-plan table span changed though the candidate set is pinned");
        if (!st.dirty && ws.tables_built != 0)
          violations.record("clean epoch bump rebuilt a cost table");
      }
      st.solved = true;
      st.dirty = false;
      digest.mix(ws.tables_reused);
      digest.mix(ws.tables_built);
      digest.mix(ws.warm_seeds);
    }
  }

  const ServiceStats stats = warm.stats();
  check_tally("warm service", stats, violations);
  if (stats.replan_count != expected_replans)
    violations.record("replan_count does not match the tracked re-solves");
  digest.mix(stats.solves);
  digest.mix(stats.replan_count);
  digest.mix(stats.replan_table_hits);
  digest.mix(stats.replan_table_misses);
  digest.mix(stats.warm_seeds);
}

// ---------------------------------------------------------------------------
// Scenario 11: the wire boundary is invisible (DESIGN.md §15).
//
// Three passes. (A) Codec hardening, pure and deterministic: every message
// type round-trips byte-identically through encode→frame→chunked decode (a
// decoded request re-canonicalizes to the IDENTICAL cache key; a decoded
// plan reproduces its fingerprint byte for byte), and each corruption class
// — flipped payload bit, flipped magic, truncation, splice, wrong version,
// wrong type, overlong declaration, malformed payload — is rejected with
// EXACTLY the expected class counter and never a crash. (B) A no-chaos
// end-to-end lockstep: a routed PlanClient drives a PlanServerLoop over a
// seeded {1,2,4,8}-shard tier (with mid-stream epoch bumps through both
// fan-outs) against the 1-shard in-process oracle — every wire-served plan
// must be fingerprint-identical, the forwarding counter must stay 0, and
// the server must report zero codec rejects. (C) A chaos pass (torn writes,
// drops, short reads from the seed's FaultPlan): async submissions must ALL
// complete exactly once — as a verified plan, an explicit shed, or an error
// — nothing hangs, nothing is silently dropped. Chaos outcomes are
// schedule-dependent, so pass C checks invariants only; the digest mixes
// exclusively the deterministic observables of passes A and B.

void run_wire(std::uint64_t seed, Digest& digest, Violations& violations) {
  Rng rng(seed ^ 0x317E5EED5ULL);

  // --- Pass A: codec round trips and corruption classes -------------------

  const auto feed_chunked = [&](net::FrameDecoder& decoder, std::string_view bytes,
                                std::vector<net::WireFrame>* frames) {
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(bytes.size() - pos, 1 + rng.uniform_index(7));
      decoder.feed(bytes.substr(pos, n));
      pos += n;
      while (auto frame = decoder.next()) frames->push_back(std::move(*frame));
    }
  };

  const auto random_request = [&] {
    PlanRequest r;
    const char* names[] = {"BT", "SP", "FT"};
    r.app = paper_profile(names[rng.uniform_index(3)]);
    r.deadline_h = 5.0 + rng.uniform(0.0, 40.0);
    if (rng.bernoulli(0.5))
      r.allowed_types = {"zz.type", "aa.type", "aa.type"};  // unsorted, duped
    if (rng.bernoulli(0.3)) r.allowed_zones = {"zone-c", "zone-a"};
    return r;
  };

  const auto synth_plan = [&] {
    Plan p;
    p.app = "SYN";
    p.step_hours = rng.uniform(0.01, 0.5);
    p.deadline_h = rng.uniform(1.0, 50.0);
    p.state_gb = rng.uniform(0.1, 8.0);
    p.od.type_index = rng.uniform_index(8);
    p.od.t_h = rng.uniform(1.0, 20.0);
    p.od.instances = 1 + static_cast<int>(rng.uniform_index(16));
    p.od.rate_usd_h = rng.uniform(0.01, 3.0);
    p.od.feasible = rng.bernoulli(0.9);
    const std::size_t n_groups = rng.uniform_index(4);
    for (std::size_t g = 0; g < n_groups; ++g) {
      GroupPlan group;
      group.spec.type_index = rng.uniform_index(8);
      group.spec.zone_index = rng.uniform_index(4);
      group.name = "g" + std::to_string(g);
      group.instances = 1 + static_cast<int>(rng.uniform_index(8));
      group.t_steps = 1 + static_cast<int>(rng.uniform_index(200));
      group.o_steps = rng.uniform(0.0, 5.0);
      group.r_steps = rng.uniform(0.0, 5.0);
      group.bid_usd = rng.uniform(0.01, 2.0);
      group.f_steps = static_cast<int>(rng.uniform_index(50));
      group.ckpt_policy = rng.bernoulli(0.5) ? "s3" : "cache+partner";
      p.groups.push_back(std::move(group));
    }
    p.expected.cost_usd = rng.uniform(0.1, 100.0);
    p.expected.time_h = rng.uniform(0.1, 50.0);
    p.expected.spot_cost_usd = rng.uniform(0.0, 50.0);
    p.expected.od_cost_usd = rng.uniform(0.0, 50.0);
    p.expected.spot_time_h = rng.uniform(0.0, 50.0);
    p.expected.od_time_h = rng.uniform(0.0, 50.0);
    p.expected.p_complete_on_spot = rng.uniform(0.0, 1.0);
    p.expected.e_min_ratio = rng.uniform(0.0, 1.0);
    p.spot_feasible = rng.bernoulli(0.8);
    p.model_evaluations = rng.uniform_index(100000);
    return p;
  };

  // A1: message round trips (encode → decode → re-encode byte-identical).
  for (int round = 0; round < 3; ++round) {
    const PlanRequest request = random_request();
    const std::string payload = net::encode_plan_request(request);
    PlanRequest decoded;
    if (!net::decode_plan_request(payload, &decoded)) {
      violations.record("well-formed plan_request payload failed to decode");
    } else {
      if (net::encode_plan_request(decoded) != payload)
        violations.record("plan_request re-encode is not byte-identical");
      if (canonical_key(canonicalized(decoded)) != canonical_key(canonicalized(request)))
        violations.record("round-tripped request re-canonicalizes to a different cache key");
      digest.mix(canonical_key(canonicalized(decoded)));
    }

    PlanResponse response;
    response.outcome = rng.bernoulli(0.2) ? PlanOutcome::kShed : PlanOutcome::kSolved;
    response.epoch = rng();
    if (response.outcome != PlanOutcome::kShed)
      response.plan = std::make_shared<const Plan>(synth_plan());
    const std::string response_payload = net::encode_plan_response(response);
    PlanResponse response_decoded;
    if (!net::decode_plan_response(response_payload, &response_decoded)) {
      violations.record("well-formed plan_response payload failed to decode");
    } else {
      if (net::encode_plan_response(response_decoded) != response_payload)
        violations.record("plan_response re-encode is not byte-identical");
      if (response.plan != nullptr &&
          plan_fingerprint(*response_decoded.plan) != plan_fingerprint(*response.plan))
        violations.record("wire round trip changed the plan fingerprint");
      if (response.plan != nullptr) digest.mix(plan_fingerprint(*response_decoded.plan));
    }

    net::WireTierStats stats;
    stats.requests = rng();
    stats.forwarded = rng();
    stats.frames_rejected = rng();
    net::WireTierStats stats_decoded;
    if (!net::decode_stats_response(net::encode_stats_response(stats), &stats_decoded) ||
        !(stats_decoded == stats))
      violations.record("stats_response does not round-trip");

    std::string message;
    if (!net::decode_error_response(
            net::encode_error_response("bad \"quote\" \\ and\nnewline"), &message) ||
        message != "bad \"quote\" \\ and\nnewline")
      violations.record("error_response does not round-trip");
  }

  // A2: clean frames through seeded chunk splits — zero rejects.
  {
    net::FrameDecoder decoder;
    std::vector<net::WireFrame> frames;
    std::string stream;
    const std::size_t n_frames = 2 + rng.uniform_index(4);
    for (std::size_t i = 0; i < n_frames; ++i)
      stream += net::encode_frame(net::MsgType::kPlanRequest, 100 + i,
                                  net::encode_plan_request(random_request()));
    feed_chunked(decoder, stream, &frames);
    decoder.finish();
    if (frames.size() != n_frames)
      violations.record("clean frame stream did not decode every frame");
    if (decoder.stats().rejects() != 0)
      violations.record("clean frame stream produced a reject");
    for (std::size_t i = 0; i < frames.size(); ++i)
      if (frames[i].request_id != 100 + i)
        violations.record("clean frame stream reordered or relabeled a frame");
    digest.mix(static_cast<std::uint64_t>(frames.size()));
  }

  // A3: one corruption per fresh decoder → exactly one class counter.
  const std::string victim = net::encode_frame(net::MsgType::kPlanRequest, 7,
                                               net::encode_plan_request(random_request()));
  const auto run_decoder = [&](std::string_view bytes, net::WireCodecStats* stats_out) {
    net::FrameDecoder decoder;
    std::vector<net::WireFrame> frames;
    feed_chunked(decoder, bytes, &frames);
    decoder.finish();
    *stats_out = decoder.stats();
    return frames;
  };

  {  // flipped bit at or after the payload start → crc_mismatch, only
    std::string corrupt = victim;
    const std::size_t at =
        net::kWireHeaderBytes + rng.uniform_index(corrupt.size() - net::kWireHeaderBytes);
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.uniform_index(8)));
    net::WireCodecStats stats;
    const auto frames = run_decoder(corrupt, &stats);
    if (!frames.empty() || stats.crc_mismatch != 1 || stats.rejects() != 1)
      violations.record("payload bit flip was not rejected as exactly one crc_mismatch");
    digest.mix(stats.crc_mismatch);
  }
  {  // flipped bit in the magic → bad_magic, nothing decodes
    std::string corrupt = victim;
    const std::size_t at = rng.uniform_index(4);
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.uniform_index(8)));
    net::WireCodecStats stats;
    const auto frames = run_decoder(corrupt, &stats);
    if (!frames.empty() || stats.bad_magic < 1)
      violations.record("magic bit flip decoded or did not count bad_magic");
  }
  {  // truncation → exactly one short_frame at finish()
    const std::size_t keep = 1 + rng.uniform_index(victim.size() - 1);
    net::WireCodecStats stats;
    const auto frames = run_decoder(std::string_view(victim).substr(0, keep), &stats);
    if (!frames.empty() || stats.short_frame != 1 || stats.rejects() != 1)
      violations.record("truncated frame was not rejected as exactly one short_frame");
    digest.mix(stats.short_frame);
  }
  {  // splice: a torn 1–3 byte prefix then a whole frame → one bad_magic,
     // and the whole frame still decodes (a bad frame fails the REQUEST,
     // never the connection)
    const std::string spliced =
        victim.substr(0, 1 + rng.uniform_index(3)) + victim;
    net::WireCodecStats stats;
    const auto frames = run_decoder(spliced, &stats);
    if (frames.size() != 1 || stats.bad_magic != 1 || stats.rejects() != 1)
      violations.record("spliced stream did not resync to exactly the intact frame");
    else if (frames[0].request_id != 7)
      violations.record("resynced frame lost its request id");
  }
  {  // unknown version (CRC valid) → exactly one unknown_version
    const std::string frame = net::encode_frame_raw(
        static_cast<std::uint16_t>(2 + rng.uniform_index(1000)), 1, 9, "payload");
    net::WireCodecStats stats;
    const auto frames = run_decoder(frame, &stats);
    if (!frames.empty() || stats.unknown_version != 1 || stats.rejects() != 1)
      violations.record("future-version frame was not rejected as exactly unknown_version");
  }
  {  // unknown type (CRC valid) → exactly one unknown_type
    const std::uint16_t bad_type =
        rng.bernoulli(0.5) ? 0 : static_cast<std::uint16_t>(6 + rng.uniform_index(1000));
    const std::string frame = net::encode_frame_raw(net::kWireVersion, bad_type, 9, "payload");
    net::WireCodecStats stats;
    const auto frames = run_decoder(frame, &stats);
    if (!frames.empty() || stats.unknown_type != 1 || stats.rejects() != 1)
      violations.record("unknown-type frame was not rejected as exactly unknown_type");
  }
  {  // declared payload over the decoder's cap → exactly one overlong_frame
    net::FrameDecoder decoder(net::FrameDecoder::Config{64});
    const std::string big(65 + rng.uniform_index(100), '\0');
    decoder.feed(net::encode_frame(net::MsgType::kPlanRequest, 9, big));
    while (decoder.next().has_value())
      violations.record("overlong frame decoded");
    decoder.finish();
    if (decoder.stats().overlong_frame != 1 || decoder.stats().rejects() != 1)
      violations.record("overlong frame was not rejected as exactly one overlong_frame");
  }
  {  // CRC-valid frame whose payload fails its message parse → bad_payload
    std::string payload = net::encode_plan_request(random_request());
    payload.pop_back();  // guaranteed-malformed: truncated inside a field
    net::FrameDecoder decoder;
    std::vector<net::WireFrame> frames;
    feed_chunked(decoder, net::encode_frame(net::MsgType::kPlanRequest, 11, payload), &frames);
    decoder.finish();
    if (frames.size() != 1) {
      violations.record("framed malformed payload did not reach the payload parser");
    } else {
      PlanRequest ignored;
      if (net::decode_plan_request(frames[0].payload, &ignored))
        violations.record("truncated plan_request payload decoded");
      decoder.note_bad_payload();
      if (decoder.stats().bad_payload != 1 || decoder.stats().rejects() != 1)
        violations.record("bad payload was not counted as exactly one bad_payload");
    }
  }

  // --- Pass B: no-chaos end-to-end lockstep against the in-process oracle --

  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), 1.5, 0.25, rng());

  const ShardedConfig config = roomy_sharded_config(rng);
  ShardedConfig oracle_config = config;
  oracle_config.shards = 1;

  const std::vector<PlanRequest> pool = request_pool({"BT", "SP", "FT"}, rng);

  {
    ShardedPlanService tier(&catalog, &estimator, market, config);
    ShardedPlanService oracle(&catalog, &estimator, market, oracle_config);
    net::ServerConfig server_config;
    server_config.workers = 2;
    server_config.max_in_flight = 64;
    net::PlanServerLoop server(&tier, server_config);
    net::PlanClient client(&server, net::ClientMode::kRouted);

    const std::size_t n_requests = 5 + rng.uniform_index(5);
    for (std::size_t i = 0; i < n_requests; ++i) {
      if (rng.bernoulli(0.25)) {
        const std::vector<PriceUpdate> updates{
            PriceUpdate{{0, 0}, {0.01 + rng.uniform(0.0, 0.05)}}};
        tier.fanout().ingest(updates);
        oracle.fanout().ingest(updates);
      }
      const PlanRequest& request = pool[rng.uniform_index(pool.size())];
      try {
        const PlanResponse got = client.plan(request);
        const PlanResponse want = oracle.serve(request);
        check_lockstep("wire tier", got, want.epoch, want.plan.get(), /*sheds_allowed=*/false,
                       digest, violations);
      } catch (const std::exception& e) {
        violations.record(std::string("no-chaos wire request failed: ") + e.what());
      }
    }

    const ShardedStats tier_stats = tier.stats();
    if (tier_stats.forwarded != 0)
      violations.record("router-aware client paid a cross-shard forward without chaos");
    if (tier_stats.sprayed != n_requests)
      violations.record("wire requests did not all enter via their landing shard");
    if (tier_stats.duplicate_solves != 0)
      violations.record("wire serving produced a duplicate solve without chaos");
    try {
      const net::WireTierStats wire_stats = client.server_stats();
      if (wire_stats.frames_rejected != 0)
        violations.record("server rejected a frame on a clean transport");
      if (wire_stats.wire_errors != 0)
        violations.record("server sent an error frame on a clean request stream");
      if (wire_stats.wire_sheds != 0)
        violations.record("server shed within a roomy in-flight budget");
      if (wire_stats.requests != n_requests)
        violations.record("tier request count over the wire lost a request");
      digest.mix(wire_stats.hits);
      digest.mix(wire_stats.solves);
      digest.mix(wire_stats.forwarded);
      digest.mix(wire_stats.epoch);
    } catch (const std::exception& e) {
      violations.record(std::string("stats round trip failed: ") + e.what());
    }
  }

  // --- Pass C: chaos — completeness only, nothing digested ----------------

  {
    ShardedPlanService tier(&catalog, &estimator, market, config);
    ShardedPlanService oracle(&catalog, &estimator, market, oracle_config);
    std::vector<std::string> reference;
    for (const PlanRequest& request : pool) {
      const PlanResponse want = oracle.serve(request);
      reference.push_back(want.plan == nullptr ? std::string() : plan_fingerprint(*want.plan));
    }

    FaultInjector faults{FaultPlan::from_seed(seed ^ 0x3172EC4A05ULL)};
    net::ServerConfig server_config;
    server_config.workers = 2;
    server_config.max_in_flight = 2 + rng.uniform_index(8);
    server_config.faults = &faults;
    net::PlanServerLoop server(&tier, server_config);
    net::PlanClient client(&server, net::ClientMode::kRouted);

    std::vector<std::size_t> picks;
    std::vector<std::uint64_t> ids;
    const std::size_t n_chaos = 4 + rng.uniform_index(5);
    for (std::size_t i = 0; i < n_chaos; ++i) {
      const std::size_t pick = rng.uniform_index(pool.size());
      picks.push_back(pick);
      ids.push_back(client.submit(pool[pick]));
    }
    client.drain();
    const std::vector<net::ClientCompletion> completions = client.harvest();
    if (completions.size() != n_chaos)
      violations.record("chaos run lost or duplicated a completion");
    std::set<std::uint64_t> seen;
    for (const net::ClientCompletion& completion : completions) {
      if (!seen.insert(completion.request_id).second)
        violations.record("chaos run delivered a request id twice");
      const auto at = std::find(ids.begin(), ids.end(), completion.request_id);
      if (at == ids.end()) {
        violations.record("chaos run delivered an unknown request id");
        continue;
      }
      if (!completion.error.empty()) continue;  // chaos may fail any request
      if (completion.response.plan == nullptr) {
        if (completion.response.outcome != PlanOutcome::kShed)
          violations.record("planless response was not an explicit shed");
        continue;
      }
      const std::size_t pick = picks[static_cast<std::size_t>(at - ids.begin())];
      if (plan_fingerprint(*completion.response.plan) != reference[pick])
        violations.record("chaos-surviving plan diverged from the in-process oracle");
    }
  }
}

// ---------------------------------------------------------------------------
// The driver: one {name, runner} row per kind, selected by seed modulo the
// table size. The driver owns the outcome boilerplate and mixes the kind name
// first into the fresh digest every runner extends.

struct Kind {
  const char* name;
  void (*run)(std::uint64_t seed, Digest& digest, Violations& violations);
};

constexpr Kind kKinds[] = {
    {"checkpoint",
     [](std::uint64_t seed, Digest& digest, Violations& violations) {
       run_checkpoint(seed, /*incremental=*/false, digest, violations);
     }},
    {"incremental",
     [](std::uint64_t seed, Digest& digest, Violations& violations) {
       run_checkpoint(seed, /*incremental=*/true, digest, violations);
     }},
    {"replay", run_replay},
    {"service", run_service},
    {"plan", run_plan},
    {"feed", run_feed},
    {"multilevel", run_multilevel},
    {"platform", run_platform},
    {"sharded", run_sharded},
    {"warmstart", run_warmstart},
    {"wire", run_wire},
};

}  // namespace

ScenarioOutcome run_scenario(std::uint64_t seed) {
  return *run_scenario(kKinds[seed % std::size(kKinds)].name, seed);
}

std::optional<ScenarioOutcome> run_scenario(std::string_view kind, std::uint64_t seed) {
  const Kind* row = std::find_if(std::begin(kKinds), std::end(kKinds),
                                 [&](const Kind& k) { return kind == k.name; });
  if (row == std::end(kKinds)) return std::nullopt;
  ScenarioOutcome out;
  out.seed = seed;
  out.kind = row->name;
  Digest digest;
  digest.mix(out.kind);
  Violations violations;
  row->run(seed, digest, violations);
  out.digest = digest.value();
  out.detail = violations.first();
  out.failed = !out.detail.empty();
  return out;
}

}  // namespace sompi::fi
