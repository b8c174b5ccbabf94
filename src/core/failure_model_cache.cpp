#include "core/failure_model_cache.h"

#include <algorithm>

#include "common/error.h"

namespace sompi {

FailureModelCache::Entry& FailureModelCache::entry_for(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.try_emplace(key).first->second;
}

FailureModel FailureModelCache::get(const CircleGroupSpec& spec, std::uint64_t grid,
                                    const SpotTrace& history, const std::vector<double>& bids,
                                    const FailureEstimationConfig& config,
                                    FailureModelTally* tally) {
  const std::size_t h = config.horizon_steps;
  SOMPI_REQUIRE(!history.empty() && h > 0);
  const std::uint64_t lineage = history.lineage();
  const std::size_t steps = history.steps();
  const auto count = [&](const FailureModel& m) {
    builds_.fetch_add(1, std::memory_order_relaxed);
    if (tally != nullptr) {
      ++tally->built;
      tally->price_steps_read += m.price_steps_read();
    }
  };

  Entry& e =
      entry_for(Key{spec.type_index, spec.zone_index, grid, config.samples, config.seed,
                    config.wrap});
  std::unique_lock<std::mutex> lock(e.mutex);
  // True when the entry's model is of this history and these bids.
  const auto entry_is_ours = [&] {
    return e.model->history_lineage() == lineage && e.model->history_steps() == steps &&
           e.model->bids() == bids;
  };
  for (;;) {
    if (e.model && entry_is_ours() && e.model->built_horizon() >= h) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return e.model->view(h);
    }
    if (!(e.building && e.build_lineage == lineage && e.build_steps == steps &&
          e.build_horizon >= h && e.build_bids == bids))
      break;
    e.built.wait(lock);
  }

  if (e.model && e.model->history_lineage() == lineage && e.model->history_steps() > steps) {
    // An older snapshot than the entry's: the entry stays with the newer one.
    lock.unlock();
    uncached_.fetch_add(1, std::memory_order_relaxed);
    FailureModel m(history, bids, config);
    count(m);
    return m;
  }

  FailureEstimationConfig build = config;
  if (e.model) build.horizon_steps = std::max(h, e.model->built_horizon());
  const std::optional<FailureModel> prefix = e.model;
  const std::uint64_t ticket = ++e.ticket;
  e.building = true;
  e.build_lineage = lineage;
  e.build_steps = steps;
  e.build_horizon = build.horizon_steps;
  e.build_bids = bids;
  lock.unlock();

  std::optional<FailureModel> built;
  try {
    built.emplace(history, bids, build, prefix ? &*prefix : nullptr);
  } catch (...) {
    lock.lock();
    if (e.ticket == ticket) e.building = false;
    e.built.notify_all();
    throw;
  }
  count(*built);

  lock.lock();
  // Install unless the entry moved on meanwhile: to a longer history of this
  // lineage, or to this history at a horizon at least as long.
  const bool newer = e.model && e.model->history_lineage() == lineage &&
                     (e.model->history_steps() > steps ||
                      (entry_is_ours() && e.model->built_horizon() >= build.horizon_steps));
  if (!newer) e.model = built;
  if (e.ticket == ticket) e.building = false;
  e.built.notify_all();
  return built->view(h);
}

FailureModelCache::Stats FailureModelCache::stats() const {
  Stats s;
  s.builds = builds_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.uncached = uncached_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    std::lock_guard<std::mutex> entry_lock(entry.mutex);
    if (!entry.model) continue;
    ++s.entries;
    s.bytes += entry.model->table_bytes();
  }
  return s;
}

}  // namespace sompi
