// ShardedPlanService — a multi-shard deployment simulation of the plan
// serving tier (DESIGN.md §13).
//
//   request ──canonicalize──► ShardRouter (consistent-hash ring)
//                                  │ home shard
//                                  ▼
//        ┌───────────── CrossShardDedup (forward + solve ledger) ─────────┐
//        ▼                         ▼                                      ▼
//   PlanService[0]            PlanService[1]        ...          PlanService[N-1]
//   MarketBoard[0] ◄──────────BoardFanout (one epoch sequence)──► MarketBoard[N-1]
//
// Every shard is a full PlanService over its own MarketBoard replica; one
// BoardFanout publishes every market update to all replicas under a
// versioned barrier, so each epoch names the same frozen market on every
// shard. Requests route to the ring owner of their canonical key — via
// serve() directly, or via serve_on(), which models a load balancer that
// sprayed the request onto an arbitrary shard: the cross-shard dedup tier
// forwards it home, so a burst of identical requests landing on N different
// shards still collapses onto ONE flight (the home shard's single-flight)
// and solves exactly once.
//
// The equivalence contract, enforced by tests rather than convention:
// for ANY request stream and ANY shard count, every response's
// plan_fingerprint is bit-identical to the single-shard oracle's at the
// same epoch, and the aggregate counters obey the conservation laws
//
//   Σ_shard requests == tier requests,    hits + solves + joins + sheds == requests,
//   solves per (canonical key, epoch) == 1   (absent cache-wipe chaos).
//
// The shards share one FailureModelCache: a market group's failure model is
// built once per history for the whole tier, whichever shard's tenants ask.
//
// The solve ledger that proves the last law is built in: every shard's
// solve hook is wrapped to record (shard, key, epoch) in a tier-level map,
// so duplicate_solves() is an exact census, not a sampled one. The map only
// holds epochs some shard can still solve at: an epoch below every shard's
// sweep horizon (PlanService::sweep_horizon) can never see another solve,
// so its entries are dropped and the ledger stays bounded however long the
// tier runs, while both solve counts stay exact.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/board_fanout.h"
#include "service/plan_service.h"
#include "service/sharded/shard_router.h"

namespace sompi {

struct ShardedConfig {
  std::size_t shards = 1;
  /// Ring points per shard (see RouterConfig::vnodes).
  std::size_t vnodes = 64;
  /// Ring salt; part of the pure routing function.
  std::uint64_t salt = 0;
  /// Per-shard service template. `service.cache.capacity` is the TIER-WIDE
  /// entry budget: each shard gets the even split, rounded up (with affine
  /// routing a shard only ever caches its own key subset, so the ceil split
  /// plus PlanCache's global-budget eviction keeps hit/miss classification
  /// identical to one big cache for evenly routed key sets — the regression
  /// in test_plan_cache_edges.cpp). solve_hook is composed with, not
  /// replaced by, the tier's solve ledger.
  ServiceConfig service;
};

/// Aggregate tier statistics: summed per-shard counters plus the sharding-
/// specific ones.
struct ShardedStats {
  /// Counter-wise sum over shards. solve_p50_ms/p99_ms (and their replan_*
  /// twins) are the WORST shard's percentiles (summing percentiles is
  /// meaningless); epoch is the fan-out's common epoch.
  ServiceStats total;
  std::vector<ServiceStats> per_shard;
  std::uint64_t routed = 0;     ///< serve() calls (ring-routed at the tier door)
  std::uint64_t sprayed = 0;    ///< serve_on() calls (landed on a caller-chosen shard)
  std::uint64_t forwarded = 0;  ///< sprayed calls whose landing shard was not home
  std::uint64_t duplicate_solves = 0;  ///< solves beyond the first per (key, epoch)
};

class ShardedPlanService {
 public:
  /// `catalog` and `estimator` are borrowed and must outlive the tier. Each
  /// shard's MarketBoard replica is primed with a copy of `initial`; all
  /// replicas therefore start at epoch 1 with bit-identical content.
  ShardedPlanService(const Catalog* catalog, const ExecTimeEstimator* estimator,
                     const Market& initial, ShardedConfig config);

  /// Serves at the canonical key's home shard (ring-routed).
  PlanResponse serve(const PlanRequest& request);

  /// Serves a request that a (simulated) load balancer dropped on
  /// `landing_shard`: the dedup tier forwards it to the home shard, where
  /// shard-local single-flight collapses concurrent identical requests from
  /// every landing shard onto one solve.
  PlanResponse serve_on(std::size_t landing_shard, const PlanRequest& request);

  /// Non-blocking warm-hit fast path for front ends (the wire server's
  /// reader threads): if the request's home shard holds an epoch-current
  /// cached plan, serves it — counted exactly like a serve_on() hit
  /// (sprayed, and forwarded when `landing_shard` is not home) — and
  /// returns it. Otherwise returns nullopt with NO counter movement; the
  /// caller falls through to serve_on(), which owns all accounting,
  /// single-flight, shed and error semantics (including invalid requests).
  std::optional<PlanResponse> try_serve_hit(std::size_t landing_shard,
                                            const PlanRequest& request);

  /// The ring owner of a request / an already-canonical key.
  std::size_t home_shard(const PlanRequest& request) const;
  std::size_t home_shard_for_key(const std::string& canonical_key) const;

  /// The single epoch-publication entry point: ingesting here bumps every
  /// shard's replica under the fan-out barrier.
  BoardFanout& fanout() { return *fanout_; }

  std::size_t shard_count() const { return services_.size(); }
  PlanService& shard(std::size_t i) { return *services_[i]; }
  MarketBoard& board(std::size_t i) { return *boards_[i]; }
  const ShardRouter& router() const { return router_; }
  /// The tier's failure-model cache, shared by every shard's warm path.
  FailureModelCache::Stats model_cache_stats() const { return models_->stats(); }

  /// Sum of per-shard stale sweeps.
  std::size_t invalidate_stale();

  ShardedStats stats() const;

  /// Distinct (canonical key, epoch) pairs solved anywhere in the tier.
  std::size_t distinct_solves() const;
  /// (key, epoch) pairs the ledger still holds: those at epochs some shard
  /// can still solve at.
  std::size_t ledger_entries() const;
  /// Solves beyond the first per (key, epoch) — 0 is the dedup-tier
  /// soundness invariant (cache-wipe chaos may legitimately raise it).
  std::uint64_t duplicate_solves() const;

  /// The tier-wide per-shard cache budget for a given total (exposed so
  /// tests can pin the split rule).
  static std::size_t per_shard_cache_capacity(std::size_t total, std::size_t shards);

  const ShardedConfig& config() const { return config_; }

 private:
  void record_solve(std::size_t shard, const std::string& key, std::uint64_t epoch);

  ShardedConfig config_;
  ShardRouter router_;
  /// One failure model per market group for the whole tier: the replicas
  /// share their trace objects, so every shard's re-plan finds the model
  /// another shard built.
  std::shared_ptr<FailureModelCache> models_;
  std::vector<std::unique_ptr<MarketBoard>> boards_;
  std::vector<std::unique_ptr<PlanService>> services_;
  std::unique_ptr<BoardFanout> fanout_;

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> sprayed_{0};
  std::atomic<std::uint64_t> forwarded_{0};

  mutable std::mutex ledger_mutex_;
  /// Solves per (epoch, canonical key), epoch first so a sweep erases a
  /// prefix.
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> solve_counts_;
  std::uint64_t distinct_solves_ = 0;
  std::uint64_t duplicate_solves_ = 0;
};

}  // namespace sompi
