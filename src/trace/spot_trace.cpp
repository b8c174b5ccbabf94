#include "trace/spot_trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace sompi {

namespace {

std::uint64_t next_lineage_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

SpotTrace::SpotTrace(double step_hours, std::vector<double> prices)
    : step_hours_(step_hours), steps_(prices.size()), capacity_(prices.size()) {
  SOMPI_REQUIRE(step_hours_ > 0.0);
  for (double p : prices) {
    SOMPI_REQUIRE_MSG(p >= 0.0, "spot price must be non-negative");
    note_extremes(p);
  }
  // Adopt the vector: its buffer becomes data_, and the deleter owns it.
  double* const adopted = prices.data();
  data_ = std::shared_ptr<double[]>(adopted, [owner = std::move(prices)](double*) {});
  lineage_ = std::make_shared<Lineage>(next_lineage_id(), steps_);
}

void SpotTrace::append(std::span<const double> more) {
  for (double p : more) SOMPI_REQUIRE_MSG(p >= 0.0, "spot price must be non-negative");
  if (more.empty()) return;  // no new step: still a prefix of the lineage
  const std::size_t from = steps_;
  const std::size_t to = from + more.size();
  std::size_t tip = from;
  const bool claimed = lineage_ != nullptr && lineage_->tip.compare_exchange_strong(tip, to);
  if (!claimed) lineage_ = std::make_shared<Lineage>(next_lineage_id(), to);
  // Keeps the old buffer alive until `more` (which may be this trace's own
  // prices) is copied.
  std::shared_ptr<double[]> old;
  if (!claimed || to > capacity_) {
    capacity_ = std::max(2 * to, kMinCapacity);
    old = std::exchange(data_, std::make_shared_for_overwrite<double[]>(capacity_));
    std::copy_n(old.get(), from, data_.get());
  }
  std::copy(more.begin(), more.end(), data_.get() + from);
  steps_ = to;
  for (double p : more) note_extremes(p);
}

void SpotTrace::note_extremes(double p) {
  max_price_ = std::max(max_price_, p);
  min_price_ = std::min(min_price_, p);
}

double SpotTrace::price(std::size_t i) const {
  SOMPI_REQUIRE(i < steps_);
  return data_[i];
}

double SpotTrace::price_at_hours(double hours) const {
  SOMPI_REQUIRE(hours >= 0.0);
  auto i = static_cast<std::size_t>(hours / step_hours_);
  i = std::min(i, steps_ - 1);
  return price(i);
}

double SpotTrace::max_price() const {
  SOMPI_REQUIRE(!empty());
  return max_price_;
}

double SpotTrace::min_price() const {
  SOMPI_REQUIRE(!empty());
  return min_price_;
}

double SpotTrace::mean_below(double bid) const { return sum_below(bid, 0, {}).mean(); }

SpotTrace::BelowSum SpotTrace::sum_below(double bid, std::size_t from, BelowSum acc) const {
  SOMPI_REQUIRE(from <= steps_);
  for (const double p : prices().subspan(from)) {
    if (p <= bid) {
      acc.sum += p;
      ++acc.count;
    }
  }
  return acc;
}

double SpotTrace::availability(double bid) const {
  if (empty()) return 0.0;
  const auto n = std::ranges::count_if(prices(), [&](double p) { return p <= bid; });
  return static_cast<double>(n) / static_cast<double>(steps_);
}

std::size_t SpotTrace::first_exceed(std::size_t start, double bid) const {
  for (std::size_t i = start; i < steps_; ++i)
    if (data_[i] > bid) return i - start;
  return kNever;
}

Histogram SpotTrace::histogram(double lo, double hi, std::size_t bins) const {
  Histogram h(lo, hi, bins);
  h.add_all(prices());
  return h;
}

SpotTrace SpotTrace::window(std::size_t start, std::size_t len) const {
  SOMPI_REQUIRE(start <= steps_);
  const std::span<const double> part = prices().subspan(start, std::min(len, steps_ - start));
  return SpotTrace(step_hours_, std::vector<double>(part.begin(), part.end()));
}

SpotTrace SpotTrace::tail_hours(double hours) const {
  SOMPI_REQUIRE(hours >= 0.0);
  const auto want = static_cast<std::size_t>(std::ceil(hours / step_hours_));
  const std::size_t start = steps_ > want ? steps_ - want : 0;
  return window(start, steps_ - start);
}

void SpotTrace::append(const SpotTrace& more) {
  SOMPI_REQUIRE_MSG(more.step_hours_ == step_hours_ || empty(),
                    "appended trace must use the same step size");
  if (empty()) step_hours_ = more.step_hours_;
  append(more.prices());
}

void SpotTrace::append(double price) { append(std::span<const double>(&price, 1)); }

SpotTrace SpotTrace::extended(const std::vector<double>& more) const {
  SpotTrace out = *this;
  out.append(more);
  return out;
}

}  // namespace sompi
