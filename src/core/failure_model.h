// The paper's failure-rate function f_i(P_i, t_i) and expected spot price
// S_i(P_i), estimated from spot-price history (§4.4 "Obtaining Failure Rate
// Function").
//
// For a bid P, the group's first-passage time is the first step at which the
// spot price exceeds P. Following the paper, we estimate its distribution in
// a histogram-based way: start from G random points in the recent history,
// record when the price first exceeds P, and normalize the counts. Record
// chains (the steps where a start's running max rises) give EVERY bid's first
// passage at once and scan overlapping horizons once (DESIGN.md §5.2). The
// expected prices resume from the sums of a model built on a prefix of the
// same history, so a grown history costs only its new steps there. The
// tables are shared and read through horizon views, so one model built at
// the longest horizon serves every app (FailureModelCache).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.h"
#include "trace/spot_trace.h"

namespace sompi {

/// Estimation knobs.
struct FailureEstimationConfig {
  /// Number of sampled start points G (paper: "G is sufficiently large").
  std::size_t samples = 2000;
  /// Steps of look-ahead; must cover the longest group wall duration.
  std::size_t horizon_steps = 400;
  /// Deterministic seed for the start-point sampler.
  std::uint64_t seed = 0x50C1A1;
  /// Wrap around the history window when a sampled run hits its end.
  bool wrap = true;
};

/// A failure model is a cheap handle: a shared pointer to immutable tables
/// built at some horizon H, read through a horizon view h <= H. A view
/// answers every query exactly as a model built at h would, bit for bit
/// (DESIGN.md §5.2), so copying a model, or narrowing it to a shorter
/// horizon, copies one pointer and one integer.
class FailureModel {
 public:
  /// Builds the model over the given candidate bid levels (ascending, all
  /// positive) from the price history. The trace must be non-empty.
  ///
  /// `prefix` is an optional earlier model. Its expected-price sums are
  /// resumed (only the steps past its history are read) when its history is
  /// a prefix of this one — same SpotTrace::lineage(), no more steps — and
  /// its bids are bit-equal to `bids`; otherwise the sums start from zero.
  /// Either way the result is bit-identical.
  FailureModel(const SpotTrace& history, std::vector<double> bids,
               const FailureEstimationConfig& config, const FailureModel* prefix = nullptr);

  /// The same tables read through the horizon `horizon` (<= built_horizon()).
  FailureModel view(std::size_t horizon) const;

  /// Candidate bid levels, ascending.
  const std::vector<double>& bids() const { return tables_->bids; }
  std::size_t bid_count() const { return tables_->bids.size(); }
  double bid(std::size_t b) const { return tables_->bids.at(b); }

  /// The horizon this handle reads through.
  std::size_t horizon() const { return horizon_; }
  /// The horizon the shared tables were built at; views may not exceed it.
  std::size_t built_horizon() const { return tables_->horizon; }

  /// P[first-passage >= t]: the group survives (at least) the first t steps.
  /// survival(b, 0) == 1. t is clamped to the horizon.
  ///
  /// A view at h reads the first h + 1 entries of each row: the counts at
  /// t <= h do not depend on how far past h the samples were scanned, and
  /// neither do the running sums that turn them into survival.
  double survival(std::size_t b, std::size_t t) const {
    SOMPI_REQUIRE(b < bid_count());
    t = std::min(t, horizon_);
    return tables_->survival[b * (tables_->horizon + 1) + t];
  }

  /// P[first-passage >= x] for fractional x (first-passage is step-valued).
  double survival_at(std::size_t b, double x) const {
    if (x <= 0.0) return 1.0;
    return survival(b, static_cast<std::size_t>(std::ceil(x)));
  }

  /// P[first-passage == t]: the paper's f_i(P, t) for a failure at step t.
  /// Never negative.
  double pmf(std::size_t b, std::size_t t) const {
    SOMPI_REQUIRE(t <= horizon_);
    const double next = t == horizon_ ? 0.0 : survival(b, t + 1);
    return std::max(0.0, survival(b, t) - next);
  }

  /// E[min(first-passage, w)]: expected lifetime of a group whose complete
  /// run lasts w wall steps. Beyond the horizon the group is assumed alive.
  double expected_lifetime(std::size_t b, double w) const;

  /// Mean time before failure, conditioned on failing within the horizon;
  /// horizon when the group never failed in any sample (drives Young/Daly).
  double mtbf(std::size_t b) const;

  /// The paper's expected spot price S_i(P): mean of historical prices <= P.
  double expected_price(std::size_t b) const { return tables_->expected_price[b]; }

  /// Highest historical price H_i (upper end of the bid range).
  double max_price() const { return tables_->max_price; }

  /// History steps the expected-price sums read while building the tables:
  /// all of them, or only those past a resumed prefix.
  std::size_t price_steps_read() const { return tables_->price_steps_read; }

  /// The history the tables were built from: its lineage and step count.
  std::uint64_t history_lineage() const { return tables_->history_lineage; }
  std::size_t history_steps() const { return tables_->summed_steps; }

  /// Approximate footprint of the shared tables.
  std::size_t table_bytes() const;

  /// True when both read one build's shared tables (at any horizons).
  bool same_tables(const FailureModel& other) const { return tables_ == other.tables_; }

 private:
  struct Tables {
    std::vector<double> bids;
    std::size_t horizon = 0;
    // survival[b * (horizon+1) + t] = P[fp >= t]
    std::vector<double> survival;
    std::vector<double> expected_price;
    double max_price = 0.0;
    // What a later model resumes from: each bid's sum over the first
    // summed_steps steps of the history with lineage history_lineage.
    std::vector<SpotTrace::BelowSum> price_sums;
    std::size_t summed_steps = 0;
    std::uint64_t history_lineage = 0;
    std::size_t price_steps_read = 0;
  };

  FailureModel(std::shared_ptr<const Tables> tables, std::size_t horizon)
      : tables_(std::move(tables)), horizon_(horizon) {}

  std::shared_ptr<const Tables> tables_;
  std::size_t horizon_;
};

/// The paper's logarithmic bid grid over (0, H]: the search points are
/// H/2^l for l = levels-1 .. 0, ascending — dense near zero where the
/// failure-rate function moves fastest, sparse near H where it is flat
/// (§4.2.2 "logarithmic searching method").
std::vector<double> logarithmic_bid_grid(double max_price, std::size_t levels);

/// Uniform grid of `points` bids over (0, H] — the ablation comparator.
std::vector<double> uniform_bid_grid(double max_price, std::size_t points);

}  // namespace sompi
