// Spot-price history for one circle group (one instance type in one zone).
//
// A trace is a step series: price is constant within a step of fixed length
// `step_hours`. Amazon updated spot prices periodically; the paper's model
// likewise discretizes failure times to integer steps (§3.2.1).
//
// Storage is append-only and shared: a trace is a view of the first steps()
// slots of a buffer that its copies and in-place extensions also read. Only
// the extension that claims its lineage's tip writes, and only past every
// view's end, so a trace never sees its steps change (DESIGN.md §13).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"

namespace sompi {

class SpotTrace {
 public:
  /// Sentinel returned by first_exceed when the price never exceeds the bid.
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  /// Trace-order sum and count of the prices at or below one bid.
  struct BelowSum {
    double sum = 0.0;
    std::size_t count = 0;
    /// The mean, or 0 when no price was at or below the bid.
    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };

  SpotTrace() = default;
  // A copy shares the buffer and costs two refcount bumps. There is no
  // separate move: a moved-from trace would keep a length without a buffer.
  SpotTrace(const SpotTrace&) = default;
  SpotTrace& operator=(const SpotTrace&) = default;

  /// Requires step_hours > 0 and all prices >= 0. Adopts `prices`' buffer
  /// without copying it.
  SpotTrace(double step_hours, std::vector<double> prices);

  /// Appends a single price step — the feed pipeline's per-tick hot path.
  void append(double price);

  /// Appends a batch of price steps. The one writer: it claims the
  /// lineage's tip (one CAS) before writing; the winner appends in place,
  /// growing the buffer geometrically when it is full, and a loser copies
  /// its steps into a fresh buffer and lineage.
  void append(std::span<const double> more);

  std::size_t steps() const { return steps_; }
  bool empty() const { return steps_ == 0; }
  /// Slots of the shared buffer: >= steps(), at most 2 * steps() (or 16)
  /// after an extension grew it.
  std::size_t capacity() const { return capacity_; }
  double step_hours() const { return step_hours_; }
  /// Total trace span in hours.
  double span_hours() const { return step_hours_ * static_cast<double>(steps()); }

  /// Price during step `i`.
  double price(std::size_t i) const;
  /// Price at absolute time `hours` from the start of the trace.
  double price_at_hours(double hours) const;
  std::span<const double> prices() const { return {data_.get(), steps_}; }

  /// Highest price seen — the paper's H_i, the upper bound of the bid range.
  /// O(1): kept up to date by construction and every append.
  double max_price() const;
  /// Lowest price seen. O(1), like max_price().
  double min_price() const;

  /// Mean of all prices that are <= bid — the paper's expected spot price
  /// S_i(P). Returns 0 when no historical price is below the bid (the group
  /// would never launch and never accrue cost).
  ///
  /// One O(n) scan in trace order: sum_below(bid, 0, {}).mean(). The
  /// summation order is part of the contract: sorted prefix sums would
  /// re-associate the additions and drift the failure model's expected
  /// prices by ulps, which the golden plans would catch. The failure model
  /// does not call this; it resumes its per-bid sums with sum_below.
  double mean_below(double bid) const;

  /// `acc` — the sum over steps [0, from) — extended by the prices of steps
  /// [from, steps()) that are <= bid, added in trace order. O(steps() - from).
  /// Resuming from a saved sum is bit-identical to summing from step 0,
  /// because the additions are the same ones in the same order.
  BelowSum sum_below(double bid, std::size_t from, BelowSum acc) const;

  /// Fraction of steps whose price is <= bid (instant availability). O(n).
  double availability(double bid) const;

  /// First step at or after `start` whose price strictly exceeds `bid`,
  /// expressed as an offset from `start`; kNever when none.
  std::size_t first_exceed(std::size_t start, double bid) const;

  /// Histogram of prices over [lo, hi) with `bins` bins.
  Histogram histogram(double lo, double hi, std::size_t bins) const;

  /// Copy of steps [start, start+len); clamped to the trace end.
  SpotTrace window(std::size_t start, std::size_t len) const;

  /// Copy of the trailing `hours` of history (the adaptive algorithm feeds
  /// the optimizer the previous window's trace).
  SpotTrace tail_hours(double hours) const;

  /// Appends another trace recorded with the same step size.
  void append(const SpotTrace& more);

  /// This trace followed by `more`, in O(more.size()) amortized. The result
  /// stays in this trace's lineage, and writes `more` into the shared
  /// buffer's spare slots, unless another extension of this trace claimed
  /// the lineage first; then it copies into a fresh buffer and lineage.
  /// Concurrent calls on one trace are safe.
  SpotTrace extended(const std::vector<double>& more) const;

  /// Lineage id: two traces with the same id agree on every step the shorter
  /// one holds, so a sum over the shorter one's steps can be resumed on the
  /// longer one. Copies share the lineage, and so does the first trace to
  /// extend it (append or extended) past its longest member; every later
  /// extension of a shorter member forks a fresh lineage, as do the
  /// constructor, window() and tail_hours(). 0 for a default-constructed
  /// trace until its first step.
  std::uint64_t lineage() const { return lineage_ == nullptr ? 0 : lineage_->id; }

 private:
  // Shared by every trace of one lineage. `tip` is the step count of its
  // longest member; every member is a prefix of that one. Every buffer
  // belongs to one lineage, and no slot at or past `tip` has been written.
  struct Lineage {
    Lineage(std::uint64_t id, std::size_t tip) : id(id), tip(tip) {}
    const std::uint64_t id;
    std::atomic<std::size_t> tip;
  };

  // Smallest buffer an extension grows into.
  static constexpr std::size_t kMinCapacity = 16;

  void note_extremes(double p);

  double step_hours_ = 1.0;
  // Slots [0, steps_) of data_ are this trace's prices; capacity_ is the
  // buffer's size.
  std::shared_ptr<double[]> data_;
  std::size_t steps_ = 0;
  std::size_t capacity_ = 0;
  // Running extremes of the prices; meaningless (and never read) while empty.
  double max_price_ = -std::numeric_limits<double>::infinity();
  double min_price_ = std::numeric_limits<double>::infinity();
  std::shared_ptr<Lineage> lineage_;
};

}  // namespace sompi
