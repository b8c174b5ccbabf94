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
//     history;
//   * any other caller builds outside every lock at max(its horizon, the
//     entry's horizon), resuming the expected-price sums of the entry's
//     model (FailureModel's prefix rule), and installs the result;
//   * a caller solving an OLDER history than the entry holds (same lineage,
//     fewer steps: a snapshot taken before an epoch bump) builds uncached.
//
// Entries are replaced, never accumulated, so there is at most one per key.
// The map's lock is held only to find a key's entry; builds and waits use
// that entry's own lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "cloud/catalog.h"
#include "core/failure_model.h"

namespace sompi {

/// Work a caller's model requests cost: the models built (cached or not) and
/// the history steps their expected-price sums read.
struct FailureModelTally {
  std::size_t built = 0;
  std::size_t price_steps_read = 0;
};

class FailureModelCache {
 public:
  /// Monotonic counters plus a point-in-time size snapshot.
  struct Stats {
    std::uint64_t builds = 0;    ///< models built, uncached builds included
    std::uint64_t hits = 0;      ///< requests served a view of an entry
    std::uint64_t uncached = 0;  ///< builds for a history older than the entry's
    std::size_t entries = 0;
    std::size_t bytes = 0;       ///< the entries' shared tables
  };

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

  Stats stats() const;

 private:
  // (type, zone, grid tag, samples, seed, wrap)
  using Key = std::tuple<std::size_t, std::size_t, std::uint64_t, std::size_t, std::uint64_t,
                         bool>;
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
  };

  Entry& entry_for(const Key& key);

  mutable std::mutex mutex_;  ///< guards the map only
  std::map<Key, Entry> entries_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> uncached_{0};
};

}  // namespace sompi
