#include "service/sharded/sharded_service.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace sompi {

std::size_t ShardedPlanService::per_shard_cache_capacity(std::size_t total,
                                                         std::size_t shards) {
  SOMPI_REQUIRE(shards >= 1);
  // Ceil split of the tier budget. Rounding UP (never down) means the summed
  // per-shard budgets are >= the tier budget, so an evenly routed key set
  // that fits the tier budget also fits its shard-local slices — the cache
  // split must never turn a would-be hit into a miss (regression pinned in
  // test_plan_cache_edges.cpp / test_sharded_service.cpp).
  return std::max<std::size_t>(1, (total + shards - 1) / shards);
}

ShardedPlanService::ShardedPlanService(const Catalog* catalog,
                                       const ExecTimeEstimator* estimator,
                                       const Market& initial, ShardedConfig config)
    : config_(std::move(config)),
      router_(RouterConfig{config_.shards, config_.vnodes, config_.salt}),
      models_(std::make_shared<FailureModelCache>()) {
  SOMPI_REQUIRE_MSG(config_.shards >= 1, "sharded tier needs at least one shard");

  boards_.reserve(config_.shards);
  services_.reserve(config_.shards);
  std::vector<MarketBoard*> replicas;
  replicas.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    boards_.push_back(std::make_unique<MarketBoard>(initial));
    replicas.push_back(boards_.back().get());
  }
  fanout_ = std::make_unique<BoardFanout>(std::move(replicas));

  for (std::size_t i = 0; i < config_.shards; ++i) {
    ServiceConfig sc = config_.service;
    sc.cache.capacity =
        per_shard_cache_capacity(config_.service.cache.capacity, config_.shards);
    // Compose the tier's solve ledger UNDER the caller's hook: the ledger
    // sees every solve, the caller's hook still fires exactly as it would on
    // a bare PlanService.
    auto user_hook = config_.service.solve_hook;
    sc.solve_hook = [this, i, user_hook](const std::string& key, std::uint64_t epoch) {
      record_solve(i, key, epoch);
      if (user_hook) user_hook(key, epoch);
    };
    services_.push_back(std::make_unique<PlanService>(catalog, estimator, boards_[i].get(),
                                                      std::move(sc), models_));
  }
}

std::size_t ShardedPlanService::home_shard_for_key(const std::string& canonical_key) const {
  return router_.route(canonical_key);
}

std::size_t ShardedPlanService::home_shard(const PlanRequest& request) const {
  return router_.route(canonical_key(canonicalized(request)));
}

PlanResponse ShardedPlanService::serve(const PlanRequest& request) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  return services_[home_shard(request)]->serve(request);
}

PlanResponse ShardedPlanService::serve_on(std::size_t landing_shard,
                                          const PlanRequest& request) {
  SOMPI_REQUIRE_MSG(landing_shard < services_.size(),
                    "landing shard out of range: " + std::to_string(landing_shard));
  sprayed_.fetch_add(1, std::memory_order_relaxed);
  // The cross-shard dedup tier in one move: whatever shard the load balancer
  // picked, the request is served at its ring home, where shard-local
  // single-flight merges it with every concurrent identical request — one
  // solve for the whole tier-wide burst.
  const std::size_t home = home_shard(request);
  if (home != landing_shard) forwarded_.fetch_add(1, std::memory_order_relaxed);
  return services_[home]->serve(request);
}

std::optional<PlanResponse> ShardedPlanService::try_serve_hit(std::size_t landing_shard,
                                                              const PlanRequest& request) {
  SOMPI_REQUIRE_MSG(landing_shard < services_.size(),
                    "landing shard out of range: " + std::to_string(landing_shard));
  std::string key;
  std::size_t home = 0;
  try {
    key = canonical_key(canonicalized(request));
    home = router_.route(key);
  } catch (...) {
    return std::nullopt;  // invalid request: the serve path owns the error
  }
  std::optional<PlanResponse> hit = services_[home]->try_cached(key);
  if (!hit.has_value()) return std::nullopt;
  sprayed_.fetch_add(1, std::memory_order_relaxed);
  if (home != landing_shard) forwarded_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::size_t ShardedPlanService::invalidate_stale() {
  std::size_t dropped = 0;
  for (const auto& service : services_) dropped += service->invalidate_stale();
  return dropped;
}

void ShardedPlanService::record_solve(std::size_t /*shard*/, const std::string& key,
                                      std::uint64_t epoch) {
  // Every solve from here on, on any shard, is at an epoch >= this horizon
  // (and so is this one: its serve call is registered at or below `epoch`),
  // so entries below it are final and dropping them keeps both counts exact.
  std::uint64_t horizon = std::numeric_limits<std::uint64_t>::max();
  for (const auto& service : services_) horizon = std::min(horizon, service->sweep_horizon());
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  solve_counts_.erase(solve_counts_.begin(), solve_counts_.lower_bound({horizon, std::string()}));
  if (++solve_counts_[{epoch, key}] > 1)
    ++duplicate_solves_;
  else
    ++distinct_solves_;
}

std::size_t ShardedPlanService::distinct_solves() const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return distinct_solves_;
}

std::size_t ShardedPlanService::ledger_entries() const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return solve_counts_.size();
}

std::uint64_t ShardedPlanService::duplicate_solves() const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return duplicate_solves_;
}

ShardedStats ShardedPlanService::stats() const {
  ShardedStats s;
  s.per_shard.reserve(services_.size());
  for (const auto& service : services_) s.per_shard.push_back(service->stats());
  for (const ServiceStats& shard : s.per_shard) {
    s.total.requests += shard.requests;
    s.total.hits += shard.hits;
    s.total.solves += shard.solves;
    s.total.dedup_joins += shard.dedup_joins;
    s.total.sheds += shard.sheds;
    s.total.stale_evicted += shard.stale_evicted;
    s.total.solve_seconds_total += shard.solve_seconds_total;
    s.total.model_evaluations += shard.model_evaluations;
    s.total.evaluations_performed += shard.evaluations_performed;
    s.total.tuples_pruned += shard.tuples_pruned;
    s.total.subsets_pruned += shard.subsets_pruned;
    s.total.multilevel_plans += shard.multilevel_plans;
    s.total.replan_count += shard.replan_count;
    s.total.warm_seeds += shard.warm_seeds;
    s.total.replan_table_hits += shard.replan_table_hits;
    s.total.replan_table_misses += shard.replan_table_misses;
    s.total.failure_models_built += shard.failure_models_built;
    s.total.solve_p50_ms = std::max(s.total.solve_p50_ms, shard.solve_p50_ms);
    s.total.solve_p99_ms = std::max(s.total.solve_p99_ms, shard.solve_p99_ms);
    s.total.replan_p50_ms = std::max(s.total.replan_p50_ms, shard.replan_p50_ms);
    s.total.replan_p99_ms = std::max(s.total.replan_p99_ms, shard.replan_p99_ms);
    s.total.cache_entries += shard.cache_entries;
  }
  s.total.epoch = fanout_->epoch();
  s.routed = routed_.load(std::memory_order_relaxed);
  s.sprayed = sprayed_.load(std::memory_order_relaxed);
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    s.duplicate_solves = duplicate_solves_;
  }
  return s;
}

}  // namespace sompi
