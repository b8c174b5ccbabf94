#include "core/cost_table_store.h"

#include <limits>

#include "common/error.h"

namespace sompi {

std::size_t GroupArtifact::bytes() const {
  std::size_t n = sizeof(GroupArtifact);
  n += f_of.capacity() * sizeof(int);
  n += f_guard_max.capacity() * sizeof(int);
  n += fits.capacity() + surv_ok.capacity();
  if (table) n += table->bytes();
  return n;
}

CostTableStore::CostTableStore(Config config, std::shared_ptr<FailureModelCache> models)
    : config_(config),
      models_(models != nullptr ? std::move(models) : std::make_shared<FailureModelCache>()) {
  SOMPI_REQUIRE(config_.max_bytes > 0);
}

void CostTableStore::touch_locked(Scope& scope) { scope.touched = ++tick_; }

void CostTableStore::drop_entry_locked(Scope& scope,
                                       std::map<SpecKey, Entry>::iterator it) {
  const std::size_t b = it->second.artifact->bytes();
  scope.bytes -= b;
  total_bytes_ -= b;
  scope.entries.erase(it);
}

void CostTableStore::evict_locked(const std::string& keep) {
  while (total_bytes_ > config_.max_bytes && scopes_.size() > 1) {
    auto victim = scopes_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = scopes_.begin(); it != scopes_.end(); ++it) {
      if (it->first == keep) continue;
      if (it->second.touched < oldest) {
        oldest = it->second.touched;
        victim = it;
      }
    }
    if (victim == scopes_.end()) return;  // only `keep` is left
    total_bytes_ -= victim->second.bytes;
    scopes_.erase(victim);
    ++counters_.evictions;
  }
}

std::shared_ptr<const GroupArtifact> CostTableStore::lookup(const std::string& scope,
                                                            const CircleGroupSpec& spec,
                                                            std::uint64_t version,
                                                            std::uint64_t config_hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto sit = scopes_.find(scope);
  if (sit == scopes_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  touch_locked(sit->second);
  const auto it = sit->second.entries.find(SpecKey{spec.type_index, spec.zone_index});
  if (it == sit->second.entries.end()) {
    ++counters_.misses;
    return nullptr;
  }
  if (it->second.config_hash != config_hash || it->second.artifact->version != version) {
    // Stale: the group's history moved (or the solver config changed under
    // the scope). It can never match again — versions of a live scope only
    // move forward — so reclaim the bytes now.
    ++counters_.invalidated;
    drop_entry_locked(sit->second, it);
    return nullptr;
  }
  ++counters_.hits;
  return it->second.artifact;
}

void CostTableStore::store(const std::string& scope, const CircleGroupSpec& spec,
                           std::uint64_t config_hash,
                           std::shared_ptr<const GroupArtifact> artifact) {
  SOMPI_REQUIRE(artifact != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& s = scopes_[scope];
  touch_locked(s);
  Entry& e = s.entries[SpecKey{spec.type_index, spec.zone_index}];
  if (e.artifact != nullptr) {
    const std::size_t b = e.artifact->bytes();
    s.bytes -= b;
    total_bytes_ -= b;
  }
  e.config_hash = config_hash;
  e.artifact = std::move(artifact);
  const std::size_t b = e.artifact->bytes();
  s.bytes += b;
  total_bytes_ += b;
  evict_locked(scope);
}

std::shared_ptr<const Plan> CostTableStore::last_plan(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto sit = scopes_.find(scope);
  return sit == scopes_.end() ? nullptr : sit->second.last_plan;
}

void CostTableStore::note_plan(const std::string& scope, std::shared_ptr<const Plan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& s = scopes_[scope];
  touch_locked(s);
  s.last_plan = std::move(plan);
}

void CostTableStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  scopes_.clear();
  total_bytes_ = 0;
}

CostTableStore::Stats CostTableStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = counters_;
  s.scopes = scopes_.size();
  s.bytes = total_bytes_;
  for (const auto& [name, scope] : scopes_) s.entries += scope.entries.size();
  return s;
}

}  // namespace sompi
