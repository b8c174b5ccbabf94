// PlanService — the long-lived, thread-safe planning front end.
//
// Request flow (see DESIGN.md "Serving layer"):
//
//   serve(request)
//     ├─ canonicalize + validate against the catalog
//     ├─ snapshot the MarketBoard        → (epoch, frozen market)
//     ├─ plan-cache lookup (key, epoch)  → kHit   (O(1), no solve)
//     ├─ join an in-flight solve         → kJoined (blocks on its result)
//     ├─ admission control               → kShed  (queue full — explicit
//     │                                    overload, never silent latency)
//     └─ run the optimizer once          → kSolved (result cached + shared
//                                          with every joiner)
//
// Single-flight: at most ONE optimizer run exists per (canonical request,
// epoch) at any moment; concurrent identical requests block on the owner's
// result instead of duplicating the solve. Combined with the optimizer's
// determinism contract (DESIGN.md §6d) this makes caching invisible: a hit
// returns a plan bit-identical (plan_fingerprint) to a fresh solve at the
// same epoch.
//
// Admission control bounds the solver: at most max_concurrent_solves
// optimizer runs execute at once, at most max_queued_solves callers wait for
// a free slot, and everyone beyond that is shed immediately with
// PlanOutcome::kShed (or OverloadError from plan_or_throw) so overload
// surfaces as an explicit signal instead of unbounded queueing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/optimizer.h"
#include "faultinject/injector.h"
#include "service/market_board.h"
#include "service/plan_cache.h"
#include "service/request.h"

namespace sompi {

/// Thrown by plan_or_throw when admission control sheds the request.
class OverloadError : public std::runtime_error {
 public:
  explicit OverloadError(const std::string& what) : std::runtime_error(what) {}
};

enum class PlanOutcome {
  kHit,     ///< served from the plan cache
  kSolved,  ///< this call ran the optimizer
  kJoined,  ///< deduplicated onto another call's in-flight solve
  kShed,    ///< rejected by admission control; no plan
};

const char* outcome_label(PlanOutcome outcome);

struct PlanResponse {
  PlanOutcome outcome = PlanOutcome::kShed;
  /// Market epoch the plan is valid for (set even when shed).
  std::uint64_t epoch = 0;
  /// Immutable shared plan; nullptr iff shed.
  std::shared_ptr<const Plan> plan;
};

/// Monotonic counters + solve-latency percentiles, snapshotted atomically
/// enough for monitoring (counters are individually exact; the set is not a
/// consistent cut).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t solves = 0;
  std::uint64_t dedup_joins = 0;
  std::uint64_t sheds = 0;
  std::uint64_t stale_evicted = 0;  ///< cache entries reclaimed on epoch bumps
  double solve_seconds_total = 0.0;
  // Cumulative optimizer work across all solves (from Plan::model_evaluations
  // / Plan::stats): how much search the service actually ran, and how much
  // the branch-and-bound fast path avoided.
  std::uint64_t model_evaluations = 0;      ///< logical (exhaustive-scan) count
  std::uint64_t evaluations_performed = 0;  ///< evaluations actually run
  std::uint64_t tuples_pruned = 0;          ///< bid tuples skipped by pruning
  std::uint64_t subsets_pruned = 0;         ///< whole subsets skipped
  /// Solves whose winning plan uses a non-flat checkpoint-level policy in at
  /// least one group (ckpt_policy != "s3") — how often the multi-level
  /// hierarchy actually beat the flat S3 path.
  std::uint64_t multilevel_plans = 0;
  // Warm-start re-planning (DESIGN.md §14). A *re-plan* is a solve of a
  // scope that already produced a plan — the case an epoch bump used to
  // turn into a full cold solve.
  std::uint64_t replan_count = 0;
  /// Re-plans whose previous plan seeded the branch-and-bound incumbent.
  std::uint64_t warm_seeds = 0;
  /// Per-group cost-table blocks reused from / rebuilt into the table store
  /// across all solves (incremental engine; exact, not sampled).
  std::uint64_t replan_table_hits = 0;
  std::uint64_t replan_table_misses = 0;
  /// Failure models the solves built (PlanStats::failure_models_built): with
  /// the model cache shared, one per group history, not one per scope.
  std::uint64_t failure_models_built = 0;
  /// Percentiles over the trailing ServiceConfig::latency_window solves
  /// (0 when nothing has been solved yet).
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  /// Same, over re-plan solves only — the epoch-churn latency the warm
  /// start exists to shrink.
  double replan_p50_ms = 0.0;
  double replan_p99_ms = 0.0;
  std::size_t cache_entries = 0;
  std::uint64_t epoch = 0;
};

struct ServiceConfig {
  PlanCache::Config cache;
  /// Optimizer runs allowed to execute concurrently.
  std::size_t max_concurrent_solves = 2;
  /// Callers allowed to wait for a solve slot; beyond this, requests shed.
  /// (Joiners of an in-flight solve never queue — they hold no slot.)
  std::size_t max_queued_solves = 16;
  /// Trailing solve latencies kept for the p50/p99 snapshot.
  std::size_t latency_window = 512;
  /// Shared by every solve. Each solve runs on its caller's thread:
  /// parallelism comes from concurrent requests, not from fanning one solve
  /// across a pool.
  OptimizerConfig opt;
  /// Byte cap etc. of the warm-start artifact store. Every solve re-plans
  /// warm (DESIGN.md §14): per-group cost tables are reused from the scope's
  /// previous solve unless that group's history version moved, and the
  /// previous plan seeds the branch-and-bound incumbent. Plans stay
  /// bit-identical to solve() (the cold oracle).
  CostTableStore::Config table_store;
  /// Test seam: runs on the owning thread right before each optimizer run
  /// with the flight's (canonical key, epoch). Lets tests hold a flight open
  /// (latches) and count solves per key; never set in production.
  std::function<void(const std::string& key, std::uint64_t epoch)> solve_hook;
  /// Chaos hook (borrowed; never set in production): when the injector's
  /// kServiceShed channel fires for a request's canonical key, serve() sheds
  /// it as if admission control had — exercising every caller's overload
  /// path under a seeded schedule.
  fi::FaultInjector* faults = nullptr;
};

class PlanService {
 public:
  /// `catalog`, `estimator` and `board` are borrowed and must outlive the
  /// service. `models` is the failure-model cache the warm path shares with
  /// other services (a tier's shards); null gives the service its own.
  PlanService(const Catalog* catalog, const ExecTimeEstimator* estimator,
              MarketBoard* board, ServiceConfig config,
              std::shared_ptr<FailureModelCache> models = nullptr);

  /// Serves one request; blocks while joining or solving. Overload is
  /// reported as PlanOutcome::kShed. A solve failure (e.g. a precondition
  /// violation inside the optimizer) propagates as an exception to the owner
  /// AND to every joiner of that flight.
  PlanResponse serve(const PlanRequest& request);

  /// Like serve(), but sheds become OverloadError.
  std::shared_ptr<const Plan> plan_or_throw(const PlanRequest& request);

  /// Non-blocking cache probe on an ALREADY-CANONICAL key: if the current
  /// epoch holds a cached plan for it, counts the request as a served hit
  /// and returns it; otherwise returns nullopt WITHOUT touching any counter
  /// — the caller falls through to serve(), which does its own accounting.
  /// Never sheds, joins a flight, or blocks on a solve (injected shed chaos
  /// rolls only on the serve() path). It reads the board's epoch once and
  /// registers no epoch floor: a sweep racing past that epoch can only turn
  /// the probe into a miss. The wire server uses this to answer warm hits
  /// inline in its reader thread instead of paying the worker and pump
  /// handoffs.
  std::optional<PlanResponse> try_cached(const std::string& canonical_key);

  /// Eagerly drops cache entries older than every epoch any in-progress
  /// request could still ask for (the *sweep horizon*: the board's current
  /// epoch, clamped to the oldest epoch registered by a live serve call).
  /// Returns the number dropped. serve() runs this sweep automatically the
  /// first time it observes each new epoch; exposed for drivers that want
  /// deterministic reclamation points.
  std::size_t invalidate_stale();

  /// The sweep horizon now: every solve this service starts from here on is
  /// at an epoch >= it, and so is every solve in progress. Not monotone (a
  /// serve call may register an epoch just below a fresh bump), but always
  /// a lower bound on the epochs still to be solved.
  std::uint64_t sweep_horizon() const { return sweep_horizon(board_->epoch()); }

  /// Chaos seam: drops EVERY cache entry, current epoch included, counting
  /// them as stale_evicted. Correctness-neutral by the cache contract (a
  /// wiped entry re-solves to a bit-identical plan) but it deliberately
  /// breaks the "exactly one solve per (request, epoch)" economy — the
  /// sharded chaos battery uses it to prove the tier survives a shard
  /// losing its cache mid-flight.
  std::size_t wipe_cache();

  ServiceStats stats() const;

  /// The deterministic reference solve behind every flight: exactly what a
  /// cache hit promises to be bit-identical to — and what a warm re-plan
  /// promises too (this is always the COLD path; it never touches the table
  /// store). Public so tests and benches can compare against it.
  Plan solve(const PlanRequest& canonical_request, const Market& market) const;

  /// Counters of the warm-start artifact store.
  CostTableStore::Stats table_store_stats() const { return table_store_.stats(); }

  const ServiceConfig& config() const { return config_; }

 private:
  struct Flight {
    std::promise<std::shared_ptr<const Plan>> promise;
    std::shared_future<std::shared_ptr<const Plan>> future;
  };
  /// RAII registration of a live serve call's epoch floor. While any
  /// registration at epoch e exists, the stale sweep never removes entries
  /// at e or newer — that is what makes "exactly one solve per (request,
  /// epoch)" exact even when epochs bump mid-request: a thread holding a
  /// pre-bump snapshot always finds the flight or the cached plan, never a
  /// swept hole.
  class EpochRegistration;

  void validate_names(const PlanRequest& request) const;
  void note_epoch(std::uint64_t epoch);
  /// board epoch clamped to the oldest registered live epoch.
  std::uint64_t sweep_horizon(std::uint64_t epoch) const;
  /// solve() with an optional warm-start context (nullptr = the cold path;
  /// solve() itself is exactly solve_with(..., nullptr)).
  Plan solve_with(const PlanRequest& canonical_request, const Market& market,
                  ReplanContext* ctx) const;
  void record_solve(double seconds, const Plan& plan, bool replan);
  /// Removes the flight, releases its solve slot, wakes queued waiters.
  void retire_flight(const std::string& flight_key);

  const Catalog* catalog_;
  MarketBoard* board_;
  ServiceConfig config_;
  SompiOptimizer optimizer_;
  PlanCache cache_;
  /// Warm-start artifacts + last plan per scope. Internally locked; mutable
  /// so the const solve path can feed it through a ReplanContext.
  mutable CostTableStore table_store_;

  std::mutex mutex_;  ///< guards flights_, active_solves_, queued_
  std::condition_variable slot_cv_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  std::size_t active_solves_ = 0;
  std::size_t queued_ = 0;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> dedup_joins_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> stale_evicted_{0};
  std::atomic<std::uint64_t> last_seen_epoch_{0};

  mutable std::mutex active_mutex_;
  std::multiset<std::uint64_t> active_epochs_;

  mutable std::mutex latency_mutex_;  ///< guards the per-solve accounting below
  double solve_seconds_total_ = 0.0;
  std::uint64_t model_evaluations_ = 0;
  std::uint64_t evaluations_performed_ = 0;
  std::uint64_t tuples_pruned_ = 0;
  std::uint64_t subsets_pruned_ = 0;
  std::uint64_t multilevel_plans_ = 0;
  std::uint64_t replan_count_ = 0;
  std::uint64_t warm_seeds_ = 0;
  std::uint64_t replan_table_hits_ = 0;
  std::uint64_t replan_table_misses_ = 0;
  std::uint64_t failure_models_built_ = 0;
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::vector<double> replan_ring_;
  std::size_t replan_next_ = 0;
};

}  // namespace sompi
