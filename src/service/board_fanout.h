// BoardFanout — replicated epoch publication for the sharded serving tier.
//
// One feed pipeline, N per-shard MarketBoard replicas: every publication
// (ingest or whole-market publish) is applied to EVERY replica under one
// serialized critical section — the *versioned barrier*. Consequences:
//
//   * every replica observes exactly the same epoch sequence, in the same
//     order, with the same market content at every epoch — literally the
//     same objects: an ingest builds each touched group's new trace once
//     and installs it on every replica, and a publish hands every replica
//     the same traces, so N replicas hold one copy of the history;
//   * publication i completes on all replicas before publication i+1 may
//     begin, so at any instant two replicas differ by at most the one
//     publication currently in flight — and at every return from
//     ingest()/publish() all replicas agree on (epoch, market);
//   * the epoch a request observes on its landing shard therefore always
//     names the same frozen market the single-board oracle had at that
//     epoch, which is what makes the sharded tier's fingerprint-equivalence
//     contract (DESIGN.md §13) provable rather than probabilistic.
//
// The barrier is checked, not assumed: after each publication the fan-out
// asserts every replica landed on the same epoch number and raises
// InvariantError on divergence (e.g. a replica that was bumped behind the
// fan-out's back).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "service/market_board.h"

namespace sompi {

class BoardFanout {
 public:
  /// `replicas` are borrowed and must outlive the fan-out; all must be at
  /// the same epoch already (freshly constructed replicas all sit at 1).
  explicit BoardFanout(std::vector<MarketBoard*> replicas);

  /// Applies one batch of price updates to every replica as one barriered
  /// publication; returns the (common) new epoch. The touched groups' new
  /// traces are built once (appended_traces against the primary) and shared
  /// by all replicas; untouched groups keep the previous epoch's objects.
  std::uint64_t ingest(const std::vector<PriceUpdate>& updates);

  /// Replaces the whole market on every replica (each replica's copy shares
  /// `next`'s trace objects); returns the new epoch.
  std::uint64_t publish(Market next);

  /// The common epoch (the primary's; equal on every replica between
  /// publications).
  std::uint64_t epoch() const;

  /// Replica 0 — the board a single-shard deployment (or a feed pipeline's
  /// priming read) treats as authoritative.
  MarketBoard* primary() const { return boards_.front(); }

  std::size_t replica_count() const { return boards_.size(); }

  /// Barriered publications completed so far.
  std::uint64_t publications() const;

 private:
  std::uint64_t check_agreement(const std::vector<std::uint64_t>& epochs) const;

  mutable std::mutex mutex_;
  std::vector<MarketBoard*> boards_;
  std::uint64_t publications_ = 0;
};

}  // namespace sompi
