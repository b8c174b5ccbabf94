#include "service/plan_service.h"

#include <chrono>
#include <limits>

#include "common/error.h"
#include "common/stats.h"

namespace sompi {

const char* outcome_label(PlanOutcome outcome) {
  switch (outcome) {
    case PlanOutcome::kHit: return "hit";
    case PlanOutcome::kSolved: return "solved";
    case PlanOutcome::kJoined: return "joined";
    case PlanOutcome::kShed: return "shed";
  }
  return "?";
}

PlanService::PlanService(const Catalog* catalog, const ExecTimeEstimator* estimator,
                         MarketBoard* board, ServiceConfig config,
                         std::shared_ptr<FailureModelCache> models)
    : catalog_(catalog),
      board_(board),
      config_(std::move(config)),
      optimizer_(catalog, estimator, config_.opt),
      cache_(config_.cache),
      table_store_(config_.table_store, std::move(models)) {
  SOMPI_REQUIRE(board_ != nullptr);  // the optimizer checks catalog and estimator
  SOMPI_REQUIRE(config_.max_concurrent_solves >= 1);
  SOMPI_REQUIRE(config_.latency_window >= 1);
  latency_ring_.reserve(config_.latency_window);
  replan_ring_.reserve(config_.latency_window);
}

void PlanService::validate_names(const PlanRequest& request) const {
  // type_index / zone_index throw with the offending name — fail fast,
  // before the request can occupy a cache slot or a solve slot.
  for (const std::string& name : request.allowed_types) (void)catalog_->type_index(name);
  for (const std::string& name : request.allowed_zones) (void)catalog_->zone_index(name);
}

class PlanService::EpochRegistration {
 public:
  EpochRegistration(PlanService* service, std::uint64_t epoch) : service_(service) {
    std::lock_guard<std::mutex> lock(service_->active_mutex_);
    it_ = service_->active_epochs_.insert(epoch);
  }
  ~EpochRegistration() {
    std::lock_guard<std::mutex> lock(service_->active_mutex_);
    service_->active_epochs_.erase(it_);
  }
  EpochRegistration(const EpochRegistration&) = delete;
  EpochRegistration& operator=(const EpochRegistration&) = delete;

 private:
  PlanService* service_;
  std::multiset<std::uint64_t>::iterator it_;
};

std::uint64_t PlanService::sweep_horizon(std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(active_mutex_);
  if (!active_epochs_.empty() && *active_epochs_.begin() < epoch)
    return *active_epochs_.begin();
  return epoch;
}

void PlanService::note_epoch(std::uint64_t epoch) {
  std::uint64_t seen = last_seen_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen) {
    if (last_seen_epoch_.compare_exchange_weak(seen, epoch, std::memory_order_relaxed)) {
      // First request to observe a new epoch sweeps the dead ones — but
      // never past a live request's registered epoch (its entry or flight
      // must survive until it returns). Entries a clamped sweep leaves
      // behind are reclaimed by the next bump's sweep or by LRU pressure.
      stale_evicted_.fetch_add(cache_.erase_older_than(sweep_horizon(epoch)),
                               std::memory_order_relaxed);
      return;
    }
  }
}

std::size_t PlanService::invalidate_stale() {
  const std::size_t dropped = cache_.erase_older_than(sweep_horizon(board_->epoch()));
  stale_evicted_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

std::size_t PlanService::wipe_cache() {
  // Epochs are bounded by the board's (uint64 max is unreachable), so
  // "older than max" is "everything".
  const std::size_t dropped = cache_.erase_older_than(std::numeric_limits<std::uint64_t>::max());
  stale_evicted_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void PlanService::record_solve(double seconds, const Plan& plan, bool replan) {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  solve_seconds_total_ += seconds;
  model_evaluations_ += plan.model_evaluations;
  evaluations_performed_ += plan.stats.evaluations;
  tuples_pruned_ += plan.stats.tuples_pruned;
  subsets_pruned_ += plan.stats.subsets_pruned;
  replan_table_hits_ += plan.stats.tables_reused;
  replan_table_misses_ += plan.stats.tables_built;
  failure_models_built_ += plan.stats.failure_models_built;
  warm_seeds_ += plan.stats.warm_seeds;
  for (const GroupPlan& g : plan.groups)
    if (g.ckpt_policy != "s3") {
      ++multilevel_plans_;
      break;
    }
  if (latency_ring_.size() < config_.latency_window) {
    latency_ring_.push_back(seconds);
  } else {
    latency_ring_[latency_next_] = seconds;
    latency_next_ = (latency_next_ + 1) % config_.latency_window;
  }
  if (replan) {
    ++replan_count_;
    if (replan_ring_.size() < config_.latency_window) {
      replan_ring_.push_back(seconds);
    } else {
      replan_ring_[replan_next_] = seconds;
      replan_next_ = (replan_next_ + 1) % config_.latency_window;
    }
  }
}

void PlanService::retire_flight(const std::string& flight_key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    flights_.erase(flight_key);
    --active_solves_;
  }
  slot_cv_.notify_all();
}

PlanResponse PlanService::serve(const PlanRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const PlanRequest canon = canonicalized(request);
  validate_names(canon);
  const std::string key = canonical_key(canon);

  // Register an epoch floor BEFORE taking the snapshot: the floor is at most
  // the snapshot's epoch (epochs are monotonic), so from here until return no
  // concurrent sweep can evict the (key, epoch) entry or flight this request
  // may come to depend on. Registering after the snapshot would leave a
  // window where a bump + sweep races ahead of the registration.
  const EpochRegistration registration(this, board_->epoch());
  const MarketSnapshot snap = board_->snapshot();
  note_epoch(snap.epoch);

  // Injected shed pressure: same contract as a real admission-control shed
  // (explicit kShed outcome, epoch reported, no plan).
  if (config_.faults != nullptr && config_.faults->fires(fi::Channel::kServiceShed, key)) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    return {PlanOutcome::kShed, snap.epoch, nullptr};
  }

  if (auto plan = cache_.lookup(key, snap.epoch)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return {PlanOutcome::kHit, snap.epoch, std::move(plan)};
  }

  const std::string flight_key = key + '@' + std::to_string(snap.epoch);
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (const auto it = flights_.find(flight_key); it != flights_.end()) {
        flight = it->second;
        break;
      }
      // A flight for this key may have finished between the lock-free miss
      // above and acquiring the lock (or while queued): its result is in
      // the cache, and solving again would break single-flight accounting.
      if (auto plan = cache_.lookup(key, snap.epoch)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {PlanOutcome::kHit, snap.epoch, std::move(plan)};
      }
      if (active_solves_ < config_.max_concurrent_solves) {
        ++active_solves_;
        flight = std::make_shared<Flight>();
        flight->future = flight->promise.get_future().share();
        flights_.emplace(flight_key, flight);
        owner = true;
        break;
      }
      if (queued_ >= config_.max_queued_solves) {
        sheds_.fetch_add(1, std::memory_order_relaxed);
        return {PlanOutcome::kShed, snap.epoch, nullptr};
      }
      ++queued_;
      slot_cv_.wait(lock);
      --queued_;
    }
  }

  if (!owner) {
    dedup_joins_.fetch_add(1, std::memory_order_relaxed);
    // Rethrows the owner's exception if its solve failed.
    auto plan = flight->future.get();
    return {PlanOutcome::kJoined, snap.epoch, std::move(plan)};
  }

  std::shared_ptr<const Plan> result;
  try {
    if (config_.solve_hook) config_.solve_hook(key, snap.epoch);
    // Warm start (DESIGN.md §14): hand the optimizer this scope's cached
    // artifacts, the snapshot's per-group history versions (so only dirty
    // groups rebuild), and the previous plan as the incumbent seed. A
    // *re-plan* is a solve whose scope already produced a plan — exactly
    // the work an epoch bump used to do from scratch.
    ReplanContext ctx{&table_store_, key, snap.versions, table_store_.last_plan(key)};
    const bool replan = ctx.incumbent != nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    Plan plan = solve_with(canon, *snap.market, &ctx);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    result = std::make_shared<const Plan>(std::move(plan));
    // Cache BEFORE retiring the flight: at every instant a concurrent
    // identical request finds either the flight or the cached plan, so one
    // (request, epoch) burst can never trigger a second solve.
    cache_.insert(key, snap.epoch, result);
    table_store_.note_plan(key, result);
    record_solve(seconds, *result, replan);
    solves_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    flight->promise.set_exception(std::current_exception());
    retire_flight(flight_key);
    throw;
  }
  flight->promise.set_value(result);
  retire_flight(flight_key);
  return {PlanOutcome::kSolved, snap.epoch, std::move(result)};
}

std::optional<PlanResponse> PlanService::try_cached(const std::string& canonical_key) {
  // One epoch read, no registration: the probe never solves, and the cache
  // hands out the plan under its shard lock, so a sweep racing past this
  // epoch can only turn the probe into a miss, which serve() then handles
  // under its own registration.
  const std::uint64_t epoch = board_->epoch();
  note_epoch(epoch);
  if (auto plan = cache_.lookup(canonical_key, epoch)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return PlanResponse{PlanOutcome::kHit, epoch, std::move(plan)};
  }
  return std::nullopt;
}

std::shared_ptr<const Plan> PlanService::plan_or_throw(const PlanRequest& request) {
  PlanResponse response = serve(request);
  if (response.outcome == PlanOutcome::kShed)
    throw OverloadError("plan service overloaded: " + std::to_string(config_.max_queued_solves) +
                        " callers already queued for a solve slot");
  return std::move(response.plan);
}

Plan PlanService::solve(const PlanRequest& canon, const Market& market) const {
  return solve_with(canon, market, nullptr);
}

Plan PlanService::solve_with(const PlanRequest& canon, const Market& market,
                             ReplanContext* ctx) const {
  return optimizer_.optimize(canon.app, market, canon.deadline_h, ctx, canon.allowed_types,
                             canon.allowed_zones);
}

ServiceStats PlanService::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.solves = solves_.load(std::memory_order_relaxed);
  s.dedup_joins = dedup_joins_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.stale_evicted = stale_evicted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    s.solve_seconds_total = solve_seconds_total_;
    s.model_evaluations = model_evaluations_;
    s.evaluations_performed = evaluations_performed_;
    s.tuples_pruned = tuples_pruned_;
    s.subsets_pruned = subsets_pruned_;
    s.multilevel_plans = multilevel_plans_;
    s.replan_count = replan_count_;
    s.warm_seeds = warm_seeds_;
    s.replan_table_hits = replan_table_hits_;
    s.replan_table_misses = replan_table_misses_;
    s.failure_models_built = failure_models_built_;
    if (!latency_ring_.empty()) {
      s.solve_p50_ms = percentile(latency_ring_, 0.50) * 1e3;
      s.solve_p99_ms = percentile(latency_ring_, 0.99) * 1e3;
    }
    if (!replan_ring_.empty()) {
      s.replan_p50_ms = percentile(replan_ring_, 0.50) * 1e3;
      s.replan_p99_ms = percentile(replan_ring_, 0.99) * 1e3;
    }
  }
  s.cache_entries = cache_.size();
  s.epoch = board_->epoch();
  return s;
}

}  // namespace sompi
