// FailureModelCache — one failure model per market group (DESIGN.md §13, §14).
//
// A group's FailureModel is a function of its price history, its bid grid
// and the estimator knobs (samples, seed, wrap): the paper's f_i(P, t) and
// S_i(P) describe the market, not the app, the deadline or the shard that
// asks (§4.4). The app enters only through the horizon, and a model built at
// horizon H answers every query at h <= H exactly as a model built at h
// would (FailureModel::view). So a tier keeps one entry per key — the group,
// a tag of its bid-grid knobs and the estimator knobs — holding the model of
// the newest history seen for that key at the longest horizon built so far:
//
//   * a caller whose history, bids and horizon the entry covers gets a view;
//   * a caller that finds a build of its history and bids already running at
//     a horizon >= its own waits for that build, so a key builds once per
//     history — or, through try_get(), is told so and waits later, after it
//     has set up its other groups (SompiOptimizer::optimize's help-first
//     pass);
//   * any other caller builds outside every lock at max(its horizon, the
//     entry's horizon), resuming the expected-price sums of the entry's
//     model (FailureModel's prefix rule), and installs the result;
//   * a caller solving an OLDER history than the entry holds (same lineage,
//     fewer steps: a snapshot taken before an epoch bump) builds uncached.
//
// Entries are replaced, never accumulated, so there is at most one per key.
// The map's lock is held only to find a key's entry; builds and waits use
// that entry's own lock.
//
// Each entry also keeps the cost-table blocks warm solves derived from its
// model (block()): a block and its φ intervals read the model, the app
// setup, the on-demand choice, the policies and the φ / cost-model knobs —
// never the deadline or the scope — so every scope and shard handed the
// cache shares them. They are dropped with the model they came from, and the
// least recently used go first once all entries' blocks pass kMaxBlockBytes.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/catalog.h"
#include "core/ckpt_interval.h"
#include "core/cost_model.h"
#include "core/failure_model.h"

namespace sompi {

/// Work a caller's model requests cost: the models built (cached or not) and
/// the history steps their expected-price sums read.
struct FailureModelTally {
  std::size_t built = 0;
  std::size_t price_steps_read = 0;
};

/// Every input of a group's GroupCostTable block, its φ intervals included,
/// except the failure model's tables: the app setup (T, O, R, instances), the
/// horizon the model is read through, the on-demand choice's rate and
/// runtime, the φ and cost-model knobs and the policy scales, bit for bit.
/// A solve builds one key from its own inputs and points it at each group in
/// turn (for_group), so a lookup allocates nothing; the hash is computed
/// there once.
class TableBlockKey {
 public:
  TableBlockKey(const OnDemandChoice& od, const std::vector<CkptPolicy>& policies,
                const CheckpointPlanner::Config& phi, const CostModel::Config& model);

  /// Points the key at `group`'s app setup and model horizon.
  TableBlockKey& for_group(const GroupSetup& group);

  bool operator==(const TableBlockKey&) const = default;
  std::size_t hash() const { return hash_; }
  /// Heap bytes a stored copy holds.
  std::size_t heap_bytes() const { return policies_.capacity() * sizeof(std::uint64_t); }

 private:
  static constexpr std::size_t kGroupFields = 5;
  /// The group's fields first, then the solve's.
  std::array<std::uint64_t, kGroupFields + 8> fields_{};
  std::vector<std::uint64_t> policies_;  ///< (o_scale, r_scale) per policy
  std::size_t hash_ = 0;
};

class FailureModelCache {
 public:
  /// Monotonic counters plus a point-in-time size snapshot.
  struct Stats {
    std::uint64_t builds = 0;    ///< models built, uncached builds included
    std::uint64_t hits = 0;      ///< requests served a view of an entry
    std::uint64_t uncached = 0;  ///< builds for a history older than the entry's
    std::uint64_t build_waits = 0;  ///< get() calls that slept on another caller's build
    std::uint64_t deferred = 0;     ///< try_get() calls that found such a build running
    std::size_t entries = 0;
    std::size_t bytes = 0;       ///< the entries' shared tables
    std::uint64_t blocks_shared = 0;   ///< block() calls served a stored block
    std::uint64_t blocks_derived = 0;  ///< block() calls that derived theirs
    std::uint64_t blocks_evicted = 0;  ///< stored blocks dropped by the byte cap
    std::size_t blocks = 0;            ///< stored blocks
    std::size_t block_bytes = 0;       ///< their charge against kMaxBlockBytes
  };

  /// The cap on the stored blocks' bytes, over all entries.
  static constexpr std::size_t kMaxBlockBytes = 32ull << 20;

  FailureModelCache() = default;
  FailureModelCache(const FailureModelCache&) = delete;
  FailureModelCache& operator=(const FailureModelCache&) = delete;

  /// The model of `history` over `bids` with `config`'s estimator knobs, read
  /// through `config.horizon_steps`. `grid` tags the bid-grid knobs the bids
  /// came from, so two grids of one group keep separate entries. Builds add
  /// to `*tally` (when non-null); a served view adds nothing.
  FailureModel get(const CircleGroupSpec& spec, std::uint64_t grid, const SpotTrace& history,
                   const std::vector<double>& bids, const FailureEstimationConfig& config,
                   FailureModelTally* tally = nullptr);

  /// get() that never sleeps: when another caller's build already covers
  /// this history, bids and horizon, returns nothing instead of waiting for
  /// it — a later get() is then served that build's model. Every other call
  /// is served, or builds, exactly as get() would, so a history still builds
  /// once.
  std::optional<FailureModel> try_get(const CircleGroupSpec& spec, std::uint64_t grid,
                                      const SpotTrace& history, const std::vector<double>& bids,
                                      const FailureEstimationConfig& config,
                                      FailureModelTally* tally = nullptr);

  /// The block of `model` under `key`: the one a call with the same
  /// arguments stored, or `derive()`'s, which is stored when `model` reads
  /// the tables of the entry that get(spec, grid, ..., config) serves. A
  /// model the entry has moved past, or that never came from it, gets its
  /// block derived and not stored. `*shared` (when non-null) says whether
  /// the block was a stored one. Two calls deriving one block at once make
  /// bit-identical blocks, so they do not wait for each other.
  template <class Derive>
  std::shared_ptr<const GroupCostTable> block(const CircleGroupSpec& spec, std::uint64_t grid,
                                              const FailureEstimationConfig& config,
                                              const FailureModel& model,
                                              const TableBlockKey& key, Derive&& derive,
                                              bool* shared = nullptr) {
    Entry& e = entry_for(key_of(spec, grid, config));
    std::shared_ptr<const GroupCostTable> block = find_block(e, model, key);
    if (shared != nullptr) *shared = block != nullptr;
    if (block == nullptr) {
      block = derive();
      store_block(e, model, key, block);
    }
    return block;
  }

  Stats stats() const;

 private:
  // (type, zone, grid tag, samples, seed, wrap)
  using Key = std::tuple<std::size_t, std::size_t, std::uint64_t, std::size_t, std::uint64_t,
                         bool>;
  struct KeyHash {
    std::size_t operator()(const TableBlockKey& key) const { return key.hash(); }
  };
  struct Block {
    std::shared_ptr<const GroupCostTable> table;
    std::size_t bytes = 0;
    std::uint64_t used = 0;  ///< block_clock_ at its last find or store
  };
  using Blocks = std::unordered_map<TableBlockKey, Block, KeyHash>;
  struct Entry {
    mutable std::mutex mutex;
    std::condition_variable built;
    /// Newest history, longest horizon; empty until the first build lands.
    std::optional<FailureModel> model;
    /// The latest build started, while it runs: its history, bids, horizon.
    bool building = false;
    std::uint64_t ticket = 0;
    std::uint64_t build_lineage = 0;
    std::size_t build_steps = 0;
    std::size_t build_horizon = 0;
    std::vector<double> build_bids;
    /// Blocks derived from `model`; cleared when it is replaced.
    Blocks blocks;
  };

  static Key key_of(const CircleGroupSpec& spec, std::uint64_t grid,
                    const FailureEstimationConfig& config);
  /// get() when `wait`, else try_get().
  std::optional<FailureModel> get_or_defer(const CircleGroupSpec& spec, std::uint64_t grid,
                                           const SpotTrace& history,
                                           const std::vector<double>& bids,
                                           const FailureEstimationConfig& config,
                                           FailureModelTally* tally, bool wait);
  Entry& entry_for(const Key& key);
  std::shared_ptr<const GroupCostTable> find_block(Entry& e, const FailureModel& model,
                                                   const TableBlockKey& key);
  void store_block(Entry& e, const FailureModel& model, const TableBlockKey& key,
                   std::shared_ptr<const GroupCostTable> table);
  /// Drops `e`'s blocks; e.mutex held.
  void drop_blocks_locked(Entry& e);
  /// Drops the least recently used blocks until their bytes fit the cap.
  void evict_blocks();

  mutable std::mutex mutex_;  ///< guards the map only
  std::map<Key, Entry> entries_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> uncached_{0};
  std::atomic<std::uint64_t> build_waits_{0};
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> block_clock_{0};
  std::atomic<std::size_t> block_bytes_{0};
  std::atomic<std::uint64_t> blocks_shared_{0};
  std::atomic<std::uint64_t> blocks_derived_{0};
  std::atomic<std::uint64_t> blocks_evicted_{0};
};

}  // namespace sompi
