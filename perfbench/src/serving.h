// The serving stack the two serving workloads drive — a 4-shard
// ShardedPlanService behind a PlanServerLoop, reached by one routed
// PlanClient with one connection per shard — plus the WireDriver that times
// each request from submit to completion and the per-workload counter
// snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fixture.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

struct ServingStack {
  std::unique_ptr<World> world;
  std::unique_ptr<sompi::ShardedPlanService> tier;
  std::unique_ptr<sompi::net::PlanServerLoop> server;
  std::unique_ptr<sompi::net::PlanClient> client;

  /// Members are destroyed in reverse order: client, server loop, tier, world.
  ServingStack(double market_days, const sompi::OptimizerConfig& opt);
};

/// One finished wire request.
struct Completion {
  std::uint64_t tag = 0;
  Clock::time_point done;
  double latency_s = 0.0;
  sompi::net::ClientCompletion wire;
  /// The response carries a plan (not shed, no wire error).
  bool ok() const {
    return wire.error.empty() && wire.response.plan != nullptr &&
           wire.response.outcome != sompi::PlanOutcome::kShed;
  }
};

/// Submits requests through a PlanClient and hands back completions with
/// their client-observed latency. Polls without blocking, so one generator
/// thread can keep a window of requests outstanding.
class WireDriver {
 public:
  explicit WireDriver(sompi::net::PlanClient* client) : client_(client) {}

  /// `start` is when the request became due (the latency's origin).
  void submit(const sompi::PlanRequest& request, std::uint64_t tag, Clock::time_point start);
  /// Submits `requests` as one client batch (one pipe write per
  /// connection); request i gets tag `first_tag + i`.
  void submit_batch(const std::vector<sompi::PlanRequest>& requests, std::uint64_t first_tag,
                    Clock::time_point start);
  /// Completions available now; when there are none, yields the processor
  /// and returns an empty list.
  std::vector<Completion> poll();
  /// Polls until every outstanding request completed. It yields rather than
  /// sleeps between polls: on a loaded host a timer wake-up can be late by
  /// milliseconds, which would be measured as plan latency.
  std::vector<Completion> finish();

 private:
  struct Pending {
    std::uint64_t tag = 0;
    Clock::time_point start;
  };
  sompi::net::PlanClient* client_;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

/// Tier + wire + codec + table-store counters at one instant.
struct CounterSnapshot {
  sompi::net::WireTierStats wire;
  sompi::ShardedStats tier;
  sompi::net::WireCodecStats client_codec;
  /// Table-store counters summed over shards.
  struct Tables {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidated = 0;  ///< a lookup that found a stale version
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::uint64_t lookups() const { return hits + misses + invalidated; }
  } tables;
};
CounterSnapshot snapshot_counters(ServingStack& stack);

/// Prints the counters moved between `before` and `after`, each ratio with
/// its base, and checks the tier's conservation laws over that interval.
void report_counters(Report& report, const CounterSnapshot& before,
                     const CounterSnapshot& after);

}  // namespace perfbench
