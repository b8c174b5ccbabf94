#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace sompi {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double OnlineStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const {
  SOMPI_REQUIRE_MSG(n_ > 0, "min() of empty OnlineStats");
  return min_;
}

double OnlineStats::max() const {
  SOMPI_REQUIRE_MSG(n_ > 0, "max() of empty OnlineStats");
  return max_;
}

double percentile(std::vector<double> values, double q) {
  SOMPI_REQUIRE(!values.empty());
  SOMPI_REQUIRE(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  SOMPI_REQUIRE(lo < hi);
  SOMPI_REQUIRE(bins >= 1);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  const double span = hi_ - lo_;
  auto bin = static_cast<std::ptrdiff_t>((x - lo_) / span * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

std::size_t Histogram::count(std::size_t bin) const {
  SOMPI_REQUIRE(bin < counts_.size());
  return counts_[bin];
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double Histogram::bin_lo(std::size_t bin) const {
  SOMPI_REQUIRE(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const {
  SOMPI_REQUIRE(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin + 1) / static_cast<double>(counts_.size());
}

double Histogram::l1_distance(const Histogram& a, const Histogram& b) {
  SOMPI_REQUIRE_MSG(a.bins() == b.bins() && a.lo_ == b.lo_ && a.hi_ == b.hi_,
                    "histograms must share binning");
  double d = 0.0;
  for (std::size_t i = 0; i < a.bins(); ++i) d += std::abs(a.density(i) - b.density(i));
  return d;
}

std::string Histogram::ascii(std::size_t width) const {
  std::ostringstream os;
  double max_density = 0.0;
  for (std::size_t i = 0; i < bins(); ++i) max_density = std::max(max_density, density(i));
  for (std::size_t i = 0; i < bins(); ++i) {
    const double d = density(i);
    const auto bar =
        max_density > 0.0
            ? static_cast<std::size_t>(d / max_density * static_cast<double>(width) + 0.5)
            : 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%8.4f,%8.4f) %6.2f%% ", bin_lo(i), bin_hi(i), d * 100.0);
    os << buf << std::string(bar, '#') << '\n';
  }
  return os.str();
}

Summary summarize(const std::vector<double>& values) {
  SOMPI_REQUIRE(!values.empty());
  OnlineStats acc;
  for (double v : values) acc.add(v);
  Summary s;
  s.n = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.p50 = percentile(values, 0.50);
  s.p95 = percentile(values, 0.95);
  return s;
}

}  // namespace sompi
