#include "core/cost_table_store.h"

#include "common/error.h"

namespace sompi {

namespace {

// Allocator bookkeeping the charges add: a red-black tree node's colour and
// links, a std::list node's links, a make_shared control block's counters.
constexpr std::size_t kTreeNode = 4 * sizeof(void*);
constexpr std::size_t kListNode = 2 * sizeof(void*);
constexpr std::size_t kControlBlock = 2 * sizeof(void*);

/// Heap bytes of a string, 0 while it fits its inline buffer.
std::size_t heap_bytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

}  // namespace

std::size_t CostTableStore::entry_bytes(const GroupArtifact& artifact) {
  return artifact.bytes() + kControlBlock + kTreeNode + sizeof(std::pair<const SpecKey, Entry>);
}

std::size_t CostTableStore::scope_bytes(const std::string& name) {
  return kTreeNode + sizeof(std::pair<const std::string, Scope>) + heap_bytes(name) +
         kListNode + sizeof(const std::string*);
}

std::size_t CostTableStore::plan_bytes(const Plan& plan) {
  std::size_t n = kControlBlock + sizeof(Plan) + heap_bytes(plan.app) +
                  plan.groups.capacity() * sizeof(GroupPlan);
  for (const GroupPlan& g : plan.groups) n += heap_bytes(g.name) + heap_bytes(g.ckpt_policy);
  return n;
}

CostTableStore::CostTableStore(Config config, std::shared_ptr<FailureModelCache> models)
    : config_(config),
      models_(models != nullptr ? std::move(models) : std::make_shared<FailureModelCache>()) {
  SOMPI_REQUIRE(config_.max_bytes > 0);
}

CostTableStore::Scope& CostTableStore::scope_locked(const std::string& name) {
  const auto [it, fresh] = scopes_.try_emplace(name);
  if (fresh) {
    it->second.lru = lru_.insert(lru_.end(), &it->first);
    it->second.bytes = scope_bytes(name);
    total_bytes_ += it->second.bytes;
  }
  return it->second;
}

void CostTableStore::touch_locked(Scope& scope) {
  lru_.splice(lru_.end(), lru_, scope.lru);
}

void CostTableStore::drop_entry_locked(Scope& scope,
                                       std::map<SpecKey, Entry>::iterator it) {
  const std::size_t b = entry_bytes(*it->second.artifact);
  scope.bytes -= b;
  total_bytes_ -= b;
  scope.entries.erase(it);
}

void CostTableStore::evict_locked(const std::string& keep) {
  auto victim = lru_.begin();
  while (total_bytes_ > config_.max_bytes && victim != lru_.end()) {
    if (**victim == keep) {
      ++victim;
      continue;
    }
    const auto it = scopes_.find(**victim);
    total_bytes_ -= it->second.bytes;
    victim = lru_.erase(victim);
    scopes_.erase(it);
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
  Scope& s = scope_locked(scope);
  touch_locked(s);
  Entry& e = s.entries[SpecKey{spec.type_index, spec.zone_index}];
  if (e.artifact != nullptr) {
    const std::size_t b = entry_bytes(*e.artifact);
    s.bytes -= b;
    total_bytes_ -= b;
  }
  e.config_hash = config_hash;
  e.artifact = std::move(artifact);
  const std::size_t b = entry_bytes(*e.artifact);
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
  Scope& s = scope_locked(scope);
  touch_locked(s);
  const std::size_t was = s.last_plan != nullptr ? plan_bytes(*s.last_plan) : 0;
  const std::size_t now = plan != nullptr ? plan_bytes(*plan) : 0;
  s.bytes = s.bytes - was + now;
  total_bytes_ = total_bytes_ - was + now;
  s.last_plan = std::move(plan);
  evict_locked(scope);
}

void CostTableStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  scopes_.clear();
  lru_.clear();
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
