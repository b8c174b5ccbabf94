// Streaming and batch statistics used across the cost model, the trace
// analyzer, and every benchmark report.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace sompi {

/// Numerically stable streaming mean/variance/extrema (Welford's algorithm).
class OnlineStats {
 public:
  /// Incorporates one observation.
  void add(double x);

  /// Merges another accumulator (parallel reduction friendly).
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolation percentile of an unsorted sample; q in [0, 1].
/// Requires a non-empty sample.
double percentile(std::vector<double> values, double q);

/// Fixed-width histogram over [lo, hi); values outside are clamped to the
/// boundary bins so no observation is dropped.
class Histogram {
 public:
  /// Requires lo < hi and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t total() const { return total_; }
  /// Fraction of observations in the given bin (0 if the histogram is empty).
  double density(std::size_t bin) const;
  /// Inclusive lower edge of a bin.
  double bin_lo(std::size_t bin) const;
  /// Exclusive upper edge of a bin.
  double bin_hi(std::size_t bin) const;

  /// L1 distance between the two normalized histograms (same binning
  /// required). 0 = identical distributions, 2 = disjoint.
  static double l1_distance(const Histogram& a, const Histogram& b);

  /// Renders an ASCII bar chart, one line per bin.
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Convenience summary of a batch of values.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Computes the Summary for a non-empty sample.
Summary summarize(const std::vector<double>& values);

}  // namespace sompi
