#include "feed/pipeline.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/error.h"
#include "common/rng.h"

namespace sompi::feed {

FeedPipeline::FeedPipeline(BoardFanout* fanout, FeedConfig config)
    : fanout_(fanout), config_(config) {
  SOMPI_REQUIRE(fanout_ != nullptr);
  SOMPI_REQUIRE(config_.window_steps > 0);
  SOMPI_REQUIRE(config_.publish_every > 0);
  SOMPI_REQUIRE(config_.late_horizon >= 1);
  SOMPI_REQUIRE(config_.queue_capacity > 0);

  const MarketSnapshot snap = fanout_->primary()->snapshot();
  const Market& market = *snap.market;
  const Catalog& catalog = market.catalog();
  zones_ = catalog.zones().size();
  group_count_ = catalog.types().size() * zones_;
  SOMPI_REQUIRE_MSG(market.group_count() == group_count_,
                    "board market must cover the full catalog");

  // Delta publication withholds all-gap columns, so board traces may have
  // unequal lengths; the feed timeline restarts at the longest one.
  base_step_ = 0;
  for (std::size_t t = 0; t < catalog.types().size(); ++t)
    for (std::size_t z = 0; z < zones_; ++z)
      base_step_ = std::max<std::uint64_t>(base_step_, market.trace({t, z}).steps());
  step_hours_ = market.trace({0, 0}).step_hours();
  groups_.reserve(group_count_);
  for (std::size_t t = 0; t < catalog.types().size(); ++t) {
    for (std::size_t z = 0; z < zones_; ++z) {
      const CircleGroupSpec spec{t, z};
      const SpotTrace& trace = market.trace(spec);
      GroupState g;
      g.group = spec;
      g.know = base_step_;
      g.last_value = trace.empty() ? 0.0 : trace.price(trace.steps() - 1);
      const std::size_t prime = std::min<std::size_t>(config_.window_steps, trace.steps());
      g.window_trace = prime > 0 ? trace.window(trace.steps() - prime, prime)
                                 : SpotTrace(step_hours_, {});
      groups_.push_back(std::move(g));
    }
  }
}

FeedPipeline::~FeedPipeline() { stop(); }

void FeedPipeline::mix(std::uint64_t value) {
  std::uint64_t state = digest_ ^ (value + 0x9E3779B97F4A7C15ULL);
  digest_ = splitmix64(state);
}

std::uint64_t FeedPipeline::ingest(TickSource& source) {
  std::uint64_t count = 0;
  while (std::optional<Tick> tick = source.next()) {
    offer(*tick);
    ++count;
  }
  return count;
}

void FeedPipeline::offer(const Tick& tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  apply_tick_locked(tick);
}

void FeedPipeline::apply_tick_locked(const Tick& tick) {
  SOMPI_REQUIRE_MSG(tick.group.type_index * zones_ + tick.group.zone_index < group_count_,
                    "tick group outside the catalog");
  SOMPI_REQUIRE_MSG(tick.price >= 0.0, "tick price must be non-negative");
  ++stats_.ticks_ingested;
  GroupState& g = groups_[group_ordinal(tick.group, zones_)];
  if (tick.step < base_step_ + g.resolved) {
    // The step already froze (committed or gap-filled): a straggler beyond
    // the late horizon, or a duplicate of an already-resolved observation.
    ++stats_.late_dropped;
    return;
  }
  if (g.pending.count(tick.step) != 0) {
    ++stats_.duplicates_dropped;
    return;
  }
  g.pending.emplace(tick.step, tick.price);
  g.know = std::max(g.know, tick.step + 1);
  resolve_group_locked(g);
  commit_ready_locked();
}

void FeedPipeline::resolve_group_locked(GroupState& g) {
  for (;;) {
    const std::uint64_t s = base_step_ + g.resolved;
    const auto it = g.pending.find(s);
    if (it != g.pending.end()) {
      g.buf.emplace_back(it->second, false);
      g.last_value = it->second;
      g.pending.erase(it);
      ++g.resolved;
    } else if (g.know >= s + config_.late_horizon) {
      // The group's own stream ran late_horizon steps past s without an
      // observation: declare it lost and carry the last value forward. This
      // depends only on the group's stream, never on other groups' arrivals.
      g.buf.emplace_back(g.last_value, true);
      ++g.resolved;
    } else {
      return;
    }
  }
}

void FeedPipeline::commit_ready_locked() {
  for (;;) {
    bool ready = true;
    for (const GroupState& g : groups_)
      if (g.buf.empty()) {
        ready = false;
        break;
      }
    if (!ready) return;

    const std::uint64_t step = base_step_ + stats_.committed_steps;
    for (std::size_t ordinal = 0; ordinal < groups_.size(); ++ordinal) {
      GroupState& g = groups_[ordinal];
      const auto [price, is_gap] = g.buf.front();
      g.buf.pop_front();
      if (is_gap) {
        ++stats_.gaps_filled;
      } else {
        ++stats_.committed_values;
        ++g.accum_real;
      }
      g.window_trace.append(price);
      // Amortized trim: rebuild to the trailing window only when the trace
      // has doubled, keeping the per-commit append O(1) amortized.
      if (g.window_trace.steps() > 2 * config_.window_steps)
        g.window_trace = g.window_trace.window(
            g.window_trace.steps() - config_.window_steps, config_.window_steps);
      g.publish_accum.push_back(price);
      mix(step);
      mix(ordinal);
      mix(std::bit_cast<std::uint64_t>(price));
    }
    ++stats_.committed_steps;
    ++rows_in_batch_;
    if (rows_in_batch_ == config_.publish_every) publish_batch_locked();
  }
}

void FeedPipeline::publish_batch_locked() {
  if (rows_in_batch_ == 0) return;
  const auto started = std::chrono::steady_clock::now();
  // Delta publication: only groups that resolved at least one REAL tick in
  // this batch publish their column. An all-gap column is pure carry-forward
  // — the group heard nothing — and appending it would move that group's
  // board history (changing its failure-model input bits) for no new
  // information, which would defeat warm re-plan table reuse. Whether a
  // column is all-gap depends only on the group's own stream, so the
  // withhold/publish split is deterministic at any producer count.
  std::vector<PriceUpdate> updates;
  std::vector<CircleGroupSpec> changed;
  updates.reserve(groups_.size());
  for (GroupState& g : groups_) {
    if (g.accum_real > 0) {
      changed.push_back(g.group);
      updates.push_back(PriceUpdate{g.group, std::move(g.publish_accum)});
    } else {
      ++stats_.columns_withheld;
    }
    g.publish_accum.clear();
    g.accum_real = 0;
  }
  if (updates.empty()) {
    // Nothing changed anywhere: suppress the batch outright — no epoch bump,
    // no publish record. Suppression is itself deterministic, so skipping
    // the epoch/end_step digest mixes keeps the digest schedule-invariant.
    ++stats_.batches_suppressed;
    rows_in_batch_ = 0;
    return;
  }
  const std::uint64_t epoch = fanout_->ingest(updates);
  ++stats_.epochs_published;
  if (config_.estimate) estimate_locked(epoch);

  PublishRecord record;
  record.epoch = epoch;
  record.rows = rows_in_batch_;
  record.end_step = base_step_ + stats_.committed_steps;
  record.changed_groups = std::move(changed);
  record.publish_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  mix(epoch);
  mix(record.end_step);
  for (const CircleGroupSpec& spec : record.changed_groups)
    mix(group_ordinal(spec, zones_));
  publish_log_.push_back(std::move(record));
  rows_in_batch_ = 0;
}

void FeedPipeline::estimate_locked(std::uint64_t epoch) {
  FeedEstimates out;
  out.epoch = epoch;
  out.window_end_step = base_step_ + stats_.committed_steps;
  out.groups.reserve(groups_.size());
  for (const GroupState& g : groups_) {
    GroupEstimate est;
    est.group = g.group;
    const std::size_t len = g.window_trace.steps();
    const std::size_t want = std::min<std::size_t>(config_.window_steps, len);
    if (want > 0) {
      const SpotTrace win = g.window_trace.window(len - want, want);
      est.window_max_price = win.max_price();
      if (est.window_max_price > 0.0) {
        est.bids = logarithmic_bid_grid(est.window_max_price, config_.estimate_bid_levels);
        const FailureModel model(win, est.bids, config_.estimation);
        est.expected_price.reserve(est.bids.size());
        est.mtbf_steps.reserve(est.bids.size());
        for (std::size_t b = 0; b < est.bids.size(); ++b) {
          est.expected_price.push_back(model.expected_price(b));
          est.mtbf_steps.push_back(model.mtbf(b));
        }
        ++stats_.estimates_computed;
      }
    }
    out.groups.push_back(std::move(est));
  }
  estimates_ = std::move(out);
}

void FeedPipeline::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  SOMPI_REQUIRE_MSG(!running_, "feed pipeline already running");
  queue_ = std::make_unique<TickQueue>(config_.queue_capacity);
  running_ = true;
  consumer_ = std::thread([this] {
    while (std::optional<Tick> tick = queue_->pop()) offer(*tick);
  });
}

bool FeedPipeline::enqueue(const Tick& tick) {
  TickQueue* queue = queue_.get();
  return queue != nullptr && queue->push(tick);
}

bool FeedPipeline::try_enqueue(const Tick& tick) {
  TickQueue* queue = queue_.get();
  return queue != nullptr && queue->try_push(tick);
}

std::uint64_t FeedPipeline::pump(TickSource& source) {
  std::uint64_t pushed = 0;
  while (std::optional<Tick> tick = source.next()) {
    if (!enqueue(*tick)) break;
    ++pushed;
  }
  return pushed;
}

void FeedPipeline::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
  }
  queue_->close();
  consumer_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  last_queue_stats_ = queue_->stats();
}

bool FeedPipeline::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void FeedPipeline::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  SOMPI_REQUIRE_MSG(!running_, "stop() the pipeline before flush()");
  // Phase 1: force-resolve every pending observation (treat each group's
  // stream as infinitely advanced, so gaps below the last observation fill).
  for (GroupState& g : groups_) {
    while (!g.pending.empty()) {
      const std::uint64_t s = base_step_ + g.resolved;
      const auto it = g.pending.find(s);
      if (it != g.pending.end()) {
        g.buf.emplace_back(it->second, false);
        g.last_value = it->second;
        g.pending.erase(it);
      } else {
        g.buf.emplace_back(g.last_value, true);
      }
      ++g.resolved;
    }
  }
  // Phase 2: equalize — gap-fill short groups up to the longest column so
  // every resolved observation commits. The target is a pure function of the
  // per-group streams, so the flushed tail is deterministic too.
  std::uint64_t target = 0;
  for (const GroupState& g : groups_) target = std::max(target, g.resolved);
  for (GroupState& g : groups_) {
    while (g.resolved < target) {
      g.buf.emplace_back(g.last_value, true);
      ++g.resolved;
    }
  }
  commit_ready_locked();
  publish_batch_locked();
}

FeedStats FeedPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TickQueue::Stats FeedPipeline::queue_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_ && queue_) return queue_->stats();
  return last_queue_stats_;
}

std::uint64_t FeedPipeline::commit_digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return digest_;
}

std::vector<PublishRecord> FeedPipeline::publish_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publish_log_;
}

FeedEstimates FeedPipeline::latest_estimates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return estimates_;
}

std::uint64_t FeedPipeline::frontier_step() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return base_step_ + stats_.committed_steps;
}

}  // namespace sompi::feed
