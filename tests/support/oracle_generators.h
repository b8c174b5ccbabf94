// Random price histories and bid grids for the failure-model oracles and
// the kernels built on the model (tests/test_failure_model.cpp,
// tests/test_ckpt_interval.cpp). They are shaped to hit the estimator's
// edge cases: tied prices, a 0.0 price (the running max's starting value),
// and bids equal to a price, duplicated, or above every price.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace sompi {

/// A random trace over `levels` distinct prices (ties when levels is small;
/// 0.0 is one of the levels, the running max's starting value).
inline std::vector<double> tied_prices(std::size_t n, std::size_t levels, Rng& rng) {
  std::vector<double> level(levels);
  for (std::size_t k = 0; k < levels; ++k) level[k] = 0.01 * static_cast<double>(k);
  std::vector<double> prices(n);
  for (double& p : prices) p = level[rng.uniform_index(levels)];
  return prices;
}

/// Ascending positive bids: some equal to a price, some duplicated, some
/// between or above every price.
inline std::vector<double> random_bids(std::span<const double> prices, Rng& rng) {
  std::vector<double> bids;
  const std::size_t count = 1 + rng.uniform_index(8);
  for (std::size_t i = 0; i < count; ++i) {
    double b = rng.bernoulli(0.5) ? prices[rng.uniform_index(prices.size())]
                                  : rng.uniform(0.0, 0.06);
    if (b <= 0.0) b = 0.005;
    bids.push_back(b);
    if (rng.bernoulli(0.2)) bids.push_back(b);  // duplicate bid
  }
  std::sort(bids.begin(), bids.end());
  return bids;
}

/// Tied prices half the time, uniform ones otherwise.
inline std::vector<double> random_prices(std::size_t n, Rng& rng) {
  if (rng.bernoulli(0.5)) return tied_prices(n, 1 + rng.uniform_index(4), rng);
  std::vector<double> prices(n);
  for (double& p : prices) p = rng.uniform(0.0, 0.05);
  return prices;
}

}  // namespace sompi
