#include "core/failure_model.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.h"
#include "common/rng.h"

namespace sompi {

FailureModel::FailureModel(const SpotTrace& history, std::vector<double> bids,
                           const FailureEstimationConfig& config, const FailureModel* prefix)
    : horizon_(config.horizon_steps) {
  SOMPI_REQUIRE(!history.empty());
  SOMPI_REQUIRE(!bids.empty());
  SOMPI_REQUIRE(std::is_sorted(bids.begin(), bids.end()));
  SOMPI_REQUIRE_MSG(bids.front() > 0.0, "bids must be positive");
  SOMPI_REQUIRE(config.samples > 0);
  SOMPI_REQUIRE(horizon_ > 0);

  auto tables = std::make_shared<Tables>();
  Tables& m = *tables;
  m.bids = std::move(bids);
  m.horizon = horizon_;
  m.max_price = history.max_price();

  // Expected prices: resume each bid's trace-order sum where the prefix
  // model stopped. The lineage proves its history is a prefix of this one;
  // equal bids are bit-equal, as no bid is zero.
  const Tables* pre = prefix != nullptr ? prefix->tables_.get() : nullptr;
  const bool resume = pre != nullptr && pre->history_lineage == history.lineage() &&
                      pre->summed_steps <= history.steps() && pre->bids == m.bids;
  const std::size_t from = resume ? pre->summed_steps : 0;
  m.price_sums.reserve(m.bids.size());
  m.expected_price.reserve(m.bids.size());
  for (std::size_t b = 0; b < m.bids.size(); ++b) {
    m.price_sums.push_back(
        history.sum_below(m.bids[b], from, resume ? pre->price_sums[b] : SpotTrace::BelowSum{}));
    m.expected_price.push_back(m.price_sums.back().mean());
  }
  m.summed_steps = history.steps();
  m.history_lineage = history.lineage();
  m.price_steps_read = m.summed_steps - from;

  // failures[b][t]: samples whose first passage for bid b lands exactly at t.
  const std::vector<double>& bid = m.bids;
  const std::size_t width = horizon_ + 1;
  std::vector<std::size_t> failures(bid.size() * width, 0);
  std::vector<std::size_t> never(bid.size(), 0);  // alive through the horizon

  // Start points come from one sequential stream; the counts are integer
  // sums, so visiting the starts in sorted order changes nothing.
  Rng rng(config.seed);
  const std::span<const double> price = history.prices();
  const std::size_t n = price.size();
  std::vector<std::size_t> starts(config.samples);
  rng.uniform_indices(n, starts);
  std::sort(starts.begin(), starts.end());

  // Record chains (DESIGN.md §5.2), distinct starts from highest to lowest:
  // s scans up to the start above, whose records within s's horizon and above
  // s's running max are s's remaining ones. A chain ends at its first record
  // above the top bid, where every bid is dead. pos is unwrapped (t = pos - s).
  struct Record { std::size_t pos; double price; };
  std::vector<Record> chain, above;  // this start's records; the start above's
  std::size_t above_start = SIZE_MAX;
  for (std::size_t hi = starts.size(), lo; hi > 0; hi = lo) {
    const std::size_t s = starts[hi - 1];
    for (lo = hi - 1; lo > 0 && starts[lo - 1] == s;) --lo;
    const std::size_t copies = hi - lo;  // samples drawn at s: starts[lo, hi)
    const std::size_t last =
        config.wrap ? s + std::min(horizon_, n - 1) : std::min(s + horizon_, n - 1);
    chain.clear();
    double run_max = 0.0;
    std::size_t pos = s;
    for (; pos <= last && pos < above_start && run_max <= bid.back(); ++pos) {
      const double p = price[pos < n ? pos : pos - n];
      if (p > run_max) chain.push_back({pos, run_max = p});
    }
    for (std::size_t r = 0; pos == above_start && r < above.size() && above[r].pos <= last; ++r)
      if (above[r].price > run_max) chain.push_back({above[r].pos, run_max = above[r].price});
    std::size_t next = 0;  // lowest still-alive bid index
    for (const Record& r : chain)
      for (; next < bid.size() && bid[next] < r.price; ++next)
        failures[next * width + (r.pos - s)] += copies;
    for (std::size_t b = next; b < bid.size(); ++b) never[b] += copies;
    std::swap(chain, above);
    above_start = s;
  }

  // Convert counts to survival curves: survival(t) = P[fp >= t].
  m.survival.assign(bid.size() * width, 0.0);
  const auto g = static_cast<double>(config.samples);
  for (std::size_t b = 0; b < bid.size(); ++b) {
    double alive = g;
    for (std::size_t t = 0; t < width; ++t) {
      m.survival[b * width + t] = alive / g;
      alive -= static_cast<double>(failures[b * width + t]);
    }
    SOMPI_ASSERT(alive >= -1e-9);
    SOMPI_ASSERT(std::abs(alive - static_cast<double>(never[b])) < 0.5);
  }
  tables_ = std::move(tables);
}

FailureModel FailureModel::view(std::size_t horizon) const {
  SOMPI_REQUIRE(horizon > 0 && horizon <= tables_->horizon);
  return FailureModel(tables_, horizon);
}

std::size_t FailureModel::table_bytes() const {
  const Tables& m = *tables_;
  return sizeof(Tables) +
         (m.bids.capacity() + m.survival.capacity() + m.expected_price.capacity()) *
             sizeof(double) +
         m.price_sums.capacity() * sizeof(SpotTrace::BelowSum);
}

double FailureModel::expected_lifetime(std::size_t b, double w) const {
  SOMPI_REQUIRE(w >= 0.0);
  // E[min(fp, w)] = sum_{t=1..floor(w)} P[fp >= t] + frac(w) * P[fp >= ceil(w)]
  // (first passage is integer-valued).
  const double capped = std::min(w, static_cast<double>(horizon_));
  const auto whole = static_cast<std::size_t>(std::floor(capped));
  double e = 0.0;
  for (std::size_t t = 1; t <= whole; ++t) e += survival(b, t);
  const double frac = capped - static_cast<double>(whole);
  if (frac > 0.0) e += frac * survival(b, whole + 1);
  return e;
}

double FailureModel::mtbf(std::size_t b) const {
  const double p_never = survival(b, horizon_);
  if (p_never >= 1.0 - 1e-12) return static_cast<double>(horizon_);
  double e = 0.0;
  for (std::size_t t = 0; t < horizon_; ++t) e += pmf(b, t) * static_cast<double>(t);
  // Condition on failing within the horizon; censored mass sits at the edge.
  e += p_never * static_cast<double>(horizon_);
  return e;
}

std::vector<double> logarithmic_bid_grid(double max_price, std::size_t levels) {
  SOMPI_REQUIRE(max_price > 0.0);
  SOMPI_REQUIRE(levels >= 1);
  std::vector<double> grid;
  grid.reserve(levels);
  for (std::size_t l = levels; l-- > 0;) grid.push_back(max_price / std::pow(2.0, l));
  return grid;  // ascending: H/2^(levels-1), ..., H/2, H
}

std::vector<double> uniform_bid_grid(double max_price, std::size_t points) {
  SOMPI_REQUIRE(max_price > 0.0);
  SOMPI_REQUIRE(points >= 1);
  std::vector<double> grid;
  grid.reserve(points);
  for (std::size_t j = 1; j <= points; ++j)
    grid.push_back(max_price * static_cast<double>(j) / static_cast<double>(points));
  return grid;
}

}  // namespace sompi
