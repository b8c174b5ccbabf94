#include "core/failure_model_cache.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/rng.h"

namespace sompi {

TableBlockKey::TableBlockKey(const OnDemandChoice& od, const std::vector<CkptPolicy>& policies,
                             const CheckpointPlanner::Config& phi,
                             const CostModel::Config& model) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  fields_[kGroupFields + 0] = bits(od.rate_usd_h);
  fields_[kGroupFields + 1] = bits(od.t_h);
  fields_[kGroupFields + 2] = static_cast<std::uint64_t>(phi.mode);
  fields_[kGroupFields + 3] = phi.grid_points;
  fields_[kGroupFields + 4] = bits(phi.step_hours);
  fields_[kGroupFields + 5] = phi.ratio_bins;
  fields_[kGroupFields + 6] = bits(model.step_hours);
  fields_[kGroupFields + 7] = model.ratio_bins;
  policies_.reserve(2 * policies.size());
  for (const CkptPolicy& pol : policies) {
    policies_.push_back(bits(pol.o_scale));
    policies_.push_back(bits(pol.r_scale));
  }
}

TableBlockKey& TableBlockKey::for_group(const GroupSetup& group) {
  fields_[0] = static_cast<std::uint64_t>(group.t_steps);
  fields_[1] = static_cast<std::uint64_t>(group.instances);
  fields_[2] = std::bit_cast<std::uint64_t>(group.o_steps);
  fields_[3] = std::bit_cast<std::uint64_t>(group.r_steps);
  fields_[4] = group.failure.horizon();
  std::uint64_t h = policies_.size();
  const auto mix = [&h](std::uint64_t v) {
    std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
    h = splitmix64(s);
  };
  for (const std::uint64_t v : fields_) mix(v);
  for (const std::uint64_t v : policies_) mix(v);
  hash_ = static_cast<std::size_t>(h);
  return *this;
}

FailureModelCache::Key FailureModelCache::key_of(const CircleGroupSpec& spec, std::uint64_t grid,
                                                 const FailureEstimationConfig& config) {
  return Key{spec.type_index, spec.zone_index, grid, config.samples, config.seed, config.wrap};
}

FailureModelCache::Entry& FailureModelCache::entry_for(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.try_emplace(key).first->second;
}

FailureModel FailureModelCache::get(const CircleGroupSpec& spec, std::uint64_t grid,
                                    const SpotTrace& history, const std::vector<double>& bids,
                                    const FailureEstimationConfig& config,
                                    FailureModelTally* tally) {
  return *get_or_defer(spec, grid, history, bids, config, tally, /*wait=*/true);
}

std::optional<FailureModel> FailureModelCache::try_get(const CircleGroupSpec& spec,
                                                       std::uint64_t grid,
                                                       const SpotTrace& history,
                                                       const std::vector<double>& bids,
                                                       const FailureEstimationConfig& config,
                                                       FailureModelTally* tally) {
  return get_or_defer(spec, grid, history, bids, config, tally, /*wait=*/false);
}

std::optional<FailureModel> FailureModelCache::get_or_defer(const CircleGroupSpec& spec,
                                                            std::uint64_t grid,
                                                            const SpotTrace& history,
                                                            const std::vector<double>& bids,
                                                            const FailureEstimationConfig& config,
                                                            FailureModelTally* tally, bool wait) {
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

  Entry& e = entry_for(key_of(spec, grid, config));
  std::unique_lock<std::mutex> lock(e.mutex);
  // True when the entry's model is of this history and these bids.
  const auto entry_is_ours = [&] {
    return e.model->history_lineage() == lineage && e.model->history_steps() == steps &&
           e.model->bids() == bids;
  };
  for (bool waited = false;; waited = true) {
    if (e.model && entry_is_ours() && e.model->built_horizon() >= h) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return e.model->view(h);
    }
    if (!(e.building && e.build_lineage == lineage && e.build_steps == steps &&
          e.build_horizon >= h && e.build_bids == bids))
      break;
    if (!wait) {
      deferred_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (!waited) build_waits_.fetch_add(1, std::memory_order_relaxed);
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
  if (!newer) {
    e.model = built;
    drop_blocks_locked(e);
  }
  if (e.ticket == ticket) e.building = false;
  e.built.notify_all();
  return built->view(h);
}

std::shared_ptr<const GroupCostTable> FailureModelCache::find_block(Entry& e,
                                                                     const FailureModel& model,
                                                                     const TableBlockKey& key) {
  std::lock_guard<std::mutex> lock(e.mutex);
  if (e.model && e.model->same_tables(model)) {
    const auto it = e.blocks.find(key);
    if (it != e.blocks.end()) {
      it->second.used = block_clock_.fetch_add(1, std::memory_order_relaxed);
      blocks_shared_.fetch_add(1, std::memory_order_relaxed);
      return it->second.table;
    }
  }
  blocks_derived_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void FailureModelCache::store_block(Entry& e, const FailureModel& model,
                                    const TableBlockKey& key,
                                    std::shared_ptr<const GroupCostTable> table) {
  SOMPI_REQUIRE(table != nullptr);
  // The block, its hash node (value, next link, cached hash) and its key's
  // policy words.
  const std::size_t bytes = table->bytes() + sizeof(Blocks::value_type) +
                            2 * sizeof(void*) + key.heap_bytes();
  if (bytes > kMaxBlockBytes) return;
  {
    std::lock_guard<std::mutex> lock(e.mutex);
    // Only blocks of the entry's own model: they leave with it.
    if (!e.model || !e.model->same_tables(model)) return;
    const auto [it, fresh] = e.blocks.try_emplace(key);
    if (!fresh) return;  // a concurrent call stored the same block
    it->second = Block{std::move(table), bytes,
                       block_clock_.fetch_add(1, std::memory_order_relaxed)};
    block_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (block_bytes_.load(std::memory_order_relaxed) > kMaxBlockBytes) evict_blocks();
}

void FailureModelCache::drop_blocks_locked(Entry& e) {
  for (const auto& [key, block] : e.blocks)
    block_bytes_.fetch_sub(block.bytes, std::memory_order_relaxed);
  e.blocks.clear();
}

void FailureModelCache::evict_blocks() {
  // Lock order: the map, then one entry at a time (as stats() takes them).
  std::lock_guard<std::mutex> lock(mutex_);
  while (block_bytes_.load(std::memory_order_relaxed) > kMaxBlockBytes) {
    Entry* victim = nullptr;
    std::uint64_t oldest = 0;
    for (auto& [key, e] : entries_) {
      std::lock_guard<std::mutex> entry_lock(e.mutex);
      for (const auto& [block_key, block] : e.blocks)
        if (victim == nullptr || block.used < oldest) {
          victim = &e;
          oldest = block.used;
        }
    }
    if (victim == nullptr) return;
    // Every find and store takes a fresh stamp, so `oldest` names one block
    // — unless a find touched it since the scan, which then rescans.
    std::lock_guard<std::mutex> entry_lock(victim->mutex);
    const auto it = std::find_if(victim->blocks.begin(), victim->blocks.end(),
                                 [&](const auto& kv) { return kv.second.used == oldest; });
    if (it == victim->blocks.end()) continue;
    block_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    victim->blocks.erase(it);
    blocks_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
}

FailureModelCache::Stats FailureModelCache::stats() const {
  Stats s;
  s.builds = builds_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.uncached = uncached_.load(std::memory_order_relaxed);
  s.build_waits = build_waits_.load(std::memory_order_relaxed);
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.blocks_shared = blocks_shared_.load(std::memory_order_relaxed);
  s.blocks_derived = blocks_derived_.load(std::memory_order_relaxed);
  s.blocks_evicted = blocks_evicted_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    std::lock_guard<std::mutex> entry_lock(entry.mutex);
    s.blocks += entry.blocks.size();
    for (const auto& [block_key, block] : entry.blocks) s.block_bytes += block.bytes;
    if (!entry.model) continue;
    ++s.entries;
    s.bytes += entry.model->table_bytes();
  }
  return s;
}

}  // namespace sompi
