// The serving layer's view of the spot market.
//
// A MarketBoard owns the authoritative Market and versions it with a
// monotonically increasing *market epoch*. Readers take an immutable
// snapshot (epoch + shared_ptr to a frozen Market) and plan against that;
// writers ingest price updates copy-on-write, so a snapshot taken before an
// update keeps planning against exactly the world it saw. Copy-on-write is
// per group: an ingest builds a new trace for each group it touches and
// shares every other group's trace object with the previous epoch. The
// epoch is what the plan cache keys on: a plan computed at epoch e is valid
// for every request that arrives while the board is still at e, and
// silently obsolete the moment the market moves.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/market.h"

namespace sompi {

/// New trailing price steps for one circle group, at the market's step size.
struct PriceUpdate {
  CircleGroupSpec group;
  std::vector<double> prices;
};

/// The next trace of one group an ingest touches.
struct GroupTrace {
  CircleGroupSpec group;
  std::shared_ptr<const SpotTrace> trace;
};

/// The new traces `updates` produce against `base`: one per distinct touched
/// group (in first-mention order), each the group's trace in `base`
/// extended (SpotTrace::extended, exact size, same lineage) by all of its
/// updates' prices in order — even when they are all empty. Untouched groups
/// cost nothing. Throws PreconditionError (and builds nothing) on an unknown
/// group, an empty base trace or a negative price.
std::vector<GroupTrace> appended_traces(const Market& base,
                                        const std::vector<PriceUpdate>& updates);

/// An immutable view of the market at one epoch. The Market behind the
/// pointer is frozen: boards never mutate a published snapshot.
struct MarketSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const Market> market;
  /// Per-group history versions, indexed by catalog ordinal
  /// (type_index·zones + zone_index); see MarketBoard::group_versions().
  /// Frozen like the market (copy-on-write).
  std::shared_ptr<const std::vector<std::uint64_t>> versions;
};

class MarketBoard {
 public:
  /// Publishes `initial` as epoch 1.
  explicit MarketBoard(Market initial);

  /// Current epoch and market; O(1), never blocks on a solve.
  MarketSnapshot snapshot() const;

  std::uint64_t epoch() const;

  /// Replaces the whole market (e.g. a fresh feed reconnect); returns the
  /// new epoch.
  std::uint64_t publish(Market next);

  /// Appends new price steps to the named groups' traces. One ingest is one
  /// atomic world transition: all updates land under a single epoch bump.
  /// Returns the new epoch. No-op updates (empty list) still bump the epoch
  /// so callers can force invalidation; the group versions stay put in that
  /// case (no history moved), which is exactly what lets a warm re-plan
  /// reuse every cached table across a forced bump.
  std::uint64_t ingest(const std::vector<PriceUpdate>& updates);

  /// ingest() with the new traces already built — by appended_traces()
  /// against a market with this board's content, which is how BoardFanout
  /// builds one set of trace objects and installs it on every replica.
  /// Same epoch and version semantics as ingest().
  std::uint64_t install(const std::vector<GroupTrace>& traces);

  /// Per-group monotone history versions, indexed by catalog ordinal
  /// (type_index·zones + zone_index). A group's version is the epoch at
  /// which its trace content last changed: the constructor and publish()
  /// stamp every group, ingest() stamps only the named groups. Two
  /// snapshots whose versions agree at ordinal g have bit-identical traces
  /// for group g — the invalidation key of the warm-start CostTableStore.
  std::shared_ptr<const std::vector<std::uint64_t>> group_versions() const;

 private:
  std::uint64_t install_locked(const std::vector<GroupTrace>& traces);

  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const Market> market_;
  std::shared_ptr<const std::vector<std::uint64_t>> versions_;
};

}  // namespace sompi
