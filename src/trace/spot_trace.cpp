#include "trace/spot_trace.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sompi {

namespace {

std::uint64_t next_lineage_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

SpotTrace::SpotTrace(double step_hours, std::vector<double> prices)
    : step_hours_(step_hours), prices_(std::move(prices)) {
  SOMPI_REQUIRE(step_hours_ > 0.0);
  for (double p : prices_) {
    SOMPI_REQUIRE_MSG(p >= 0.0, "spot price must be non-negative");
    note_extremes(p);
  }
  lineage_ = std::make_shared<Lineage>(next_lineage_id(), prices_.size());
}

void SpotTrace::claim(std::size_t from) {
  const std::size_t to = prices_.size();
  if (to == from) return;  // no new step: still a prefix of the lineage
  std::size_t tip = from;
  if (lineage_ == nullptr || !lineage_->tip.compare_exchange_strong(tip, to))
    lineage_ = std::make_shared<Lineage>(next_lineage_id(), to);
}

void SpotTrace::note_extremes(double p) {
  max_price_ = std::max(max_price_, p);
  min_price_ = std::min(min_price_, p);
}

double SpotTrace::price(std::size_t i) const {
  SOMPI_REQUIRE(i < prices_.size());
  return prices_[i];
}

double SpotTrace::price_at_hours(double hours) const {
  SOMPI_REQUIRE(hours >= 0.0);
  auto i = static_cast<std::size_t>(hours / step_hours_);
  i = std::min(i, prices_.size() - 1);
  return price(i);
}

double SpotTrace::max_price() const {
  SOMPI_REQUIRE(!prices_.empty());
  return max_price_;
}

double SpotTrace::min_price() const {
  SOMPI_REQUIRE(!prices_.empty());
  return min_price_;
}

double SpotTrace::mean_below(double bid) const { return sum_below(bid, 0, {}).mean(); }

SpotTrace::BelowSum SpotTrace::sum_below(double bid, std::size_t from, BelowSum acc) const {
  SOMPI_REQUIRE(from <= prices_.size());
  for (std::size_t i = from; i < prices_.size(); ++i) {
    if (prices_[i] <= bid) {
      acc.sum += prices_[i];
      ++acc.count;
    }
  }
  return acc;
}

double SpotTrace::availability(double bid) const {
  if (prices_.empty()) return 0.0;
  const auto n = std::count_if(prices_.begin(), prices_.end(), [&](double p) { return p <= bid; });
  return static_cast<double>(n) / static_cast<double>(prices_.size());
}

std::size_t SpotTrace::first_exceed(std::size_t start, double bid) const {
  for (std::size_t i = start; i < prices_.size(); ++i)
    if (prices_[i] > bid) return i - start;
  return kNever;
}

Histogram SpotTrace::histogram(double lo, double hi, std::size_t bins) const {
  Histogram h(lo, hi, bins);
  h.add_all(prices_);
  return h;
}

SpotTrace SpotTrace::window(std::size_t start, std::size_t len) const {
  SOMPI_REQUIRE(start <= prices_.size());
  const std::size_t end = std::min(start + len, prices_.size());
  return SpotTrace(step_hours_,
                   std::vector<double>(prices_.begin() + static_cast<std::ptrdiff_t>(start),
                                       prices_.begin() + static_cast<std::ptrdiff_t>(end)));
}

SpotTrace SpotTrace::tail_hours(double hours) const {
  SOMPI_REQUIRE(hours >= 0.0);
  const auto want = static_cast<std::size_t>(std::ceil(hours / step_hours_));
  const std::size_t start = prices_.size() > want ? prices_.size() - want : 0;
  return window(start, prices_.size() - start);
}

void SpotTrace::append(const SpotTrace& more) {
  SOMPI_REQUIRE_MSG(more.step_hours_ == step_hours_ || prices_.empty(),
                    "appended trace must use the same step size");
  if (prices_.empty()) step_hours_ = more.step_hours_;
  const std::size_t from = prices_.size();
  prices_.insert(prices_.end(), more.prices_.begin(), more.prices_.end());
  if (!more.empty()) {
    note_extremes(more.max_price_);
    note_extremes(more.min_price_);
  }
  claim(from);
}

void SpotTrace::append(double price) {
  SOMPI_REQUIRE_MSG(price >= 0.0, "spot price must be non-negative");
  prices_.push_back(price);
  note_extremes(price);
  claim(prices_.size() - 1);
}

void SpotTrace::append(const std::vector<double>& prices) {
  for (double p : prices) SOMPI_REQUIRE_MSG(p >= 0.0, "spot price must be non-negative");
  const std::size_t from = prices_.size();
  prices_.insert(prices_.end(), prices.begin(), prices.end());
  for (double p : prices) note_extremes(p);
  claim(from);
}

SpotTrace SpotTrace::extended(const std::vector<double>& more) const {
  SpotTrace out;
  out.step_hours_ = step_hours_;
  out.prices_.reserve(prices_.size() + more.size());
  out.prices_.assign(prices_.begin(), prices_.end());
  out.max_price_ = max_price_;
  out.min_price_ = min_price_;
  out.lineage_ = lineage_;
  out.append(more);  // within the reserved capacity; claims the lineage
  return out;
}

}  // namespace sompi
