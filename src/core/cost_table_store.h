// CostTableStore — the warm-start re-optimization cache (DESIGN.md §14).
//
// One solve derives, per candidate group, a stack of artifacts that depend
// only on (that group's price history, the optimizer config, the app, the
// deadline, the on-demand tier): the GroupSetup with its Monte-Carlo
// FailureModel — a minority of a cold solve, which the search dominates —
// plus the φ-tied checkpoint intervals, the guard tables and the search's
// GroupCostTable block. All of it is a pure function of those
// inputs, so when an epoch bump moves only SOME groups' histories, the clean
// groups' artifacts can be reused bit-identically instead of rebuilt.
//
// The store keys artifacts two ways:
//   * the *scope* — the canonical request key, which pins app, deadline and
//     constraints, so every artifact in a scope shares one config hash;
//   * within a scope, the group spec, guarded by an exact
//     (history version, config hash) match. The version comes from
//     MarketBoard::group_versions(): equal versions mean bit-identical
//     traces. Reuse needs exact equality (not >=), which makes
//     wraparound/reset safe — any mismatch invalidates.
//
// The setups' failure models come from a FailureModelCache: one model per
// market group, shared by every scope (tenant and deadline) of the store and
// by every store handed the same cache (the shards of one tier). A rebuilt
// setup therefore costs a Monte-Carlo estimation only when no other scope
// has already estimated that group's new history.
//
// Memory is bounded by a byte cap with scope-granularity LRU eviction: a
// scope's artifacts live and die together (partial scopes would only
// re-miss), and the scope just touched is never the victim.
//
// Thread-safe; artifacts are immutable and handed out by shared_ptr, so
// readers never block on a concurrent solve's store-backs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/catalog.h"
#include "core/cost_model.h"
#include "core/failure_model_cache.h"
#include "core/plan.h"
#include "core/problem.h"

namespace sompi {

/// Everything one solve derives for one candidate group. A *setup-only*
/// artifact (has_derived() == false) carries just the GroupSetup — enough to
/// skip the Monte-Carlo failure estimation — and is enriched to a full
/// artifact the first time the group survives candidate pruning inside a
/// search; a full artifact always carries its `table` block.
struct GroupArtifact {
  /// FailureModel (inside GroupSetup) has no default state, so an artifact
  /// is born setup-only and enriched by assigning the derived fields.
  GroupArtifact(std::uint64_t version, GroupSetup setup)
      : version(version), setup(std::move(setup)) {}

  /// Group history version (MarketBoard::group_versions()) at build time.
  std::uint64_t version = 0;
  GroupSetup setup;
  /// φ-tied checkpoint interval per composite (policy, bid) choice.
  std::vector<int> f_of;
  /// Guard-clamped max interval per policy (g·n_pol row of the solve).
  std::vector<int> f_guard_max;
  /// Per-choice guard bits: worst case fits the deadline / survival >= 0.5.
  std::vector<unsigned char> fits;
  std::vector<unsigned char> surv_ok;
  /// Per-choice cost table block; non-null whenever has_derived().
  std::shared_ptr<const GroupCostTable> table;

  bool has_derived() const { return !f_of.empty(); }
  /// Approximate footprint for the store's byte accounting. The failure
  /// model counts as its handle: its tables are shared, and the model
  /// cache accounts for them.
  std::size_t bytes() const;
};

class CostTableStore {
 public:
  struct Config {
    /// Byte cap across all scopes; scope-LRU evicted. The most recently
    /// touched scope is never evicted, so one working set may exceed the
    /// cap rather than thrash.
    std::size_t max_bytes = 64ull << 20;
  };

  /// Monotonic counters plus a point-in-time size snapshot.
  struct Stats {
    std::uint64_t hits = 0;         ///< lookups served from the store
    std::uint64_t misses = 0;       ///< lookups with no entry for the spec
    std::uint64_t invalidated = 0;  ///< entries dropped on version/config mismatch
    std::uint64_t evictions = 0;    ///< scopes evicted by the byte cap
    std::size_t scopes = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  CostTableStore() : CostTableStore(Config()) {}
  /// `models` is the failure-model cache the setups share; null gives the
  /// store one of its own.
  explicit CostTableStore(Config config, std::shared_ptr<FailureModelCache> models = nullptr);

  /// Returns the artifact for (scope, spec) iff its recorded history version
  /// and config hash match EXACTLY; a mismatched entry is dropped (counted
  /// as invalidated) and nullptr returned.
  std::shared_ptr<const GroupArtifact> lookup(const std::string& scope,
                                              const CircleGroupSpec& spec,
                                              std::uint64_t version, std::uint64_t config_hash);

  /// Inserts or replaces the artifact for (scope, spec), then enforces the
  /// byte cap (evicting least-recently-touched OTHER scopes).
  void store(const std::string& scope, const CircleGroupSpec& spec,
             std::uint64_t config_hash, std::shared_ptr<const GroupArtifact> artifact);

  /// The last plan note_plan()ed for this scope — the warm incumbent seed.
  /// Null until a plan lands or after the scope was evicted.
  std::shared_ptr<const Plan> last_plan(const std::string& scope) const;
  void note_plan(const std::string& scope, std::shared_ptr<const Plan> plan);

  /// Drops every scope. Counters survive (they are monotone).
  void clear();

  Stats stats() const;
  const Config& config() const { return config_; }

  /// The failure-model cache behind this store's setups.
  FailureModelCache& models() const { return *models_; }

 private:
  using SpecKey = std::pair<std::size_t, std::size_t>;  // (type_index, zone_index)
  struct Entry {
    std::uint64_t config_hash = 0;
    std::shared_ptr<const GroupArtifact> artifact;
  };
  struct Scope {
    std::map<SpecKey, Entry> entries;
    std::shared_ptr<const Plan> last_plan;
    std::uint64_t touched = 0;  ///< LRU tick
    std::size_t bytes = 0;
  };

  void touch_locked(Scope& scope);
  void drop_entry_locked(Scope& scope, std::map<SpecKey, Entry>::iterator it);
  void evict_locked(const std::string& keep);

  mutable std::mutex mutex_;
  Config config_;
  std::shared_ptr<FailureModelCache> models_;
  std::map<std::string, Scope> scopes_;
  std::uint64_t tick_ = 0;
  std::size_t total_bytes_ = 0;
  Stats counters_;  ///< hits/misses/invalidated/evictions only
};

}  // namespace sompi
