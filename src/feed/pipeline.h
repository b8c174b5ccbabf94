// FeedPipeline — streaming spot-price ingestion driving windowed
// re-estimation and epoch publication (DESIGN.md §10).
//
// Ticks flow in from any mix of sources — synchronously (ingest/offer) or
// through a bounded MPSC queue with a consumer thread (start/enqueue/stop) —
// and are folded into a per-group *resolution frontier*:
//
//   * each group's next unresolved step resolves to its tick price the
//     moment that tick arrives, or to a gap-fill (the group's last resolved
//     price) once the group's own stream has advanced `late_horizon` steps
//     past it;
//   * a market row commits when EVERY group has resolved it; every
//     `publish_every` committed rows the batch is ingested into the
//     MarketBoard as one atomic epoch bump, and each group's trailing
//     window is snapshotted (a refcount bump); latest_estimates() builds
//     the failure / expected-price statistics from those snapshots on its
//     first read of each epoch;
//   * publication is *delta-precise*: only groups with at least one real
//     tick in the batch publish their column (all-gap columns are withheld —
//     a group that heard nothing must not have its board history move, or
//     downstream warm re-plans could not reuse its cached cost tables
//     bit-identically), and a batch in which no group changed is suppressed
//     entirely: no epoch bump, no publish record. Withholding is a pure
//     function of each group's own stream, so determinism is unaffected.
//
// Determinism: a group's resolved column is a pure function of that group's
// post-chaos tick stream (plus late_horizon and the primed last value) —
// never of cross-group arrival interleaving — so the committed price matrix,
// the epoch publication sequence, the re-estimated statistics, and the
// commit digest are bit-identical at any producer count, with or without a
// ChaosTickSource in front, for the same underlying streams.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/failure_model.h"
#include "feed/tick.h"
#include "feed/tick_queue.h"
#include "service/board_fanout.h"
#include "service/market_board.h"

namespace sompi::feed {

struct FeedConfig {
  /// Trailing steps kept per group for re-estimation (the adaptive loop's
  /// lookback, in steps).
  std::size_t window_steps = 96;
  /// Committed rows per epoch publication (the feed's T_m granularity).
  std::size_t publish_every = 16;
  /// Steps a group's stream may run ahead of an unresolved step before that
  /// step is declared lost and gap-filled. Bounds reordering tolerance AND
  /// pending-buffer memory.
  std::size_t late_horizon = 3;
  /// Bounded queue capacity for the concurrent mode.
  std::size_t queue_capacity = 1024;
  /// Bid levels of the per-group logarithmic grid used for estimates.
  std::size_t estimate_bid_levels = 6;
  /// Estimator knobs for latest_estimates().
  FailureEstimationConfig estimation = {.samples = 256, .horizon_steps = 64};
};

/// Monotonic pipeline counters. After flush() the conservation laws hold:
///   ticks_ingested == committed_values + duplicates_dropped + late_dropped
///   committed_values + gaps_filled == committed_steps * group_count
struct FeedStats {
  std::uint64_t ticks_ingested = 0;
  std::uint64_t duplicates_dropped = 0;  ///< step already pending or duplicate seq
  std::uint64_t late_dropped = 0;        ///< arrived after the step resolved
  std::uint64_t committed_values = 0;    ///< steps committed from a real tick
  std::uint64_t gaps_filled = 0;         ///< steps committed by carry-forward
  std::uint64_t committed_steps = 0;     ///< full market rows committed
  std::uint64_t epochs_published = 0;
  /// Per-group estimates built by latest_estimates() reads (at most one
  /// build per group and epoch).
  std::uint64_t estimates_computed = 0;
  /// All-gap group columns dropped from a batch (the group saw no real tick
  /// in the batch, so its board history must not move).
  std::uint64_t columns_withheld = 0;
  /// Batches where EVERY column was all-gap: no epoch bump at all.
  std::uint64_t batches_suppressed = 0;
};

/// One epoch publication, in order.
struct PublishRecord {
  std::uint64_t epoch = 0;
  std::uint64_t rows = 0;       ///< committed rows in this batch
  std::uint64_t end_step = 0;   ///< absolute market length after the batch
  /// The groups whose columns this epoch published — exactly those with at
  /// least one real tick in the batch. Disjoint from the withheld set and
  /// together with it covers the full catalog (the conservation law the
  /// delta tests assert). Never empty: an empty delta suppresses the batch.
  std::vector<CircleGroupSpec> changed_groups;
  /// Wall seconds spent in board ingest + window snapshots (monitoring
  /// only — never part of the commit digest).
  double publish_seconds = 0.0;
};

/// Windowed failure/price statistics for one group at one epoch.
struct GroupEstimate {
  CircleGroupSpec group;
  double window_max_price = 0.0;       ///< H_i over the trailing window
  std::vector<double> bids;            ///< logarithmic grid over (0, H_i]
  std::vector<double> expected_price;  ///< S_i(P) per bid
  std::vector<double> mtbf_steps;      ///< mean time before failure per bid
};

struct FeedEstimates {
  std::uint64_t epoch = 0;          ///< board epoch these were computed for
  std::uint64_t window_end_step = 0;
  std::vector<GroupEstimate> groups;
};

class FeedPipeline {
 public:
  /// Publications publish_log() keeps — above any feed test's, bench's or
  /// fuzz run's epoch count.
  static constexpr std::size_t kPublishLogRecords = 1024;

  /// One pipeline feeds every replica behind `fanout` (borrowed; must
  /// outlive the pipeline) — a single board is a one-replica fan-out,
  /// `BoardFanout fanout({&board})`. Each epoch publication goes through the
  /// fan-out's versioned barrier, so all replicas see the identical epoch
  /// sequence this pipeline commits. The primary replica's current market
  /// primes the timeline: its length is the first feed step and its trailing
  /// `window_steps` prime the estimation windows.
  FeedPipeline(BoardFanout* fanout, FeedConfig config);

  ~FeedPipeline();

  FeedPipeline(const FeedPipeline&) = delete;
  FeedPipeline& operator=(const FeedPipeline&) = delete;

  // --- synchronous ingestion (no queue, caller's thread) ---

  /// Drains `source` to exhaustion; returns ticks ingested.
  std::uint64_t ingest(TickSource& source);
  /// Applies one tick. Thread-safe (serialized); per-group FIFO delivery is
  /// the caller's responsibility — it is what determinism is defined over.
  void offer(const Tick& tick);

  // --- concurrent ingestion (bounded queue + consumer thread) ---

  /// Starts the consumer thread with a fresh queue. Requires not running.
  void start();
  /// Blocking producer push; false once the pipeline stopped.
  bool enqueue(const Tick& tick);
  /// Non-blocking producer push; false = backpressure or stopped.
  bool try_enqueue(const Tick& tick);
  /// Producer helper: pushes every tick of `source`; returns ticks pushed.
  std::uint64_t pump(TickSource& source);
  /// Closes the queue, drains it, joins the consumer. Idempotent; the
  /// pipeline can be start()ed again afterwards.
  void stop();
  bool running() const;

  /// Force-resolves every pending observation, commits the remaining rows
  /// (gap-filling groups that are short), and publishes the final partial
  /// batch. Call after ingestion ends; not valid while running().
  void flush();

  // --- observation ---

  FeedStats stats() const;
  /// Queue counters from the most recent start()/stop() cycle.
  TickQueue::Stats queue_stats() const;
  /// Order-sensitive digest over every committed (step, group, price) and
  /// every published (epoch, end_step): the determinism gate's fingerprint.
  std::uint64_t commit_digest() const;
  /// The last kPublishLogRecords publications, oldest first. commit_digest()
  /// covers every publication.
  std::vector<PublishRecord> publish_log() const;
  /// Estimates over each group's trailing window at the latest publication
  /// (empty before the first). Built on the first call of each epoch and
  /// memoized until the next publication.
  FeedEstimates latest_estimates();
  const FeedConfig& config() const { return config_; }
  /// Absolute market steps committed so far (base + committed_steps).
  std::uint64_t frontier_step() const;

 private:
  struct GroupState {
    CircleGroupSpec group;
    std::uint64_t resolved = 0;           ///< steps resolved past base_step_
    std::uint64_t know = 0;               ///< highest (step + 1) applied
    std::map<std::uint64_t, double> pending;  ///< unresolved observations
    std::deque<std::pair<double, bool>> buf;  ///< resolved, uncommitted (price, is_gap)
    double last_value = 0.0;              ///< gap-fill carry
    SpotTrace window_trace;               ///< trailing window for estimation
    std::vector<double> publish_accum;    ///< committed, unpublished prices
    std::uint64_t accum_real = 0;         ///< real (non-gap) values in accum
  };

  void apply_tick_locked(const Tick& tick);
  void resolve_group_locked(GroupState& g);
  void commit_ready_locked();
  void publish_batch_locked();
  FeedEstimates estimate_locked();
  void mix(std::uint64_t value);

  BoardFanout* fanout_;
  FeedConfig config_;
  std::size_t zones_ = 0;
  std::size_t group_count_ = 0;
  std::uint64_t base_step_ = 0;   ///< board market length at construction
  double step_hours_ = 1.0;

  mutable std::mutex mutex_;      ///< guards everything below
  std::vector<GroupState> groups_;
  FeedStats stats_;
  std::uint64_t digest_ = 0x5eedf00d9e3779b9ULL;
  std::uint64_t rows_in_batch_ = 0;
  std::deque<PublishRecord> publish_log_;  ///< at most kPublishLogRecords
  // Each group's window trace at the latest publication (views sharing the
  // window buffers); estimates_ memoizes the estimates built from them.
  std::vector<SpotTrace> published_windows_;
  std::optional<FeedEstimates> estimates_;
  TickQueue::Stats last_queue_stats_;

  std::unique_ptr<TickQueue> queue_;
  std::thread consumer_;
  bool running_ = false;
};

}  // namespace sompi::feed
