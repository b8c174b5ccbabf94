// Subset and mixed-radix enumeration helpers for the optimizer's k-of-K
// circle-group search and its bid-tuple odometer. The colex and lex tuple
// walkers the oracles use live in tests/support/reference_search.h.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"

namespace sompi {

/// Calls fn(indices) for every size-k subset of {0, ..., n-1}, in
/// lexicographic order. indices is reused across calls.
template <typename Fn>
void for_each_combination(std::size_t n, std::size_t k, Fn&& fn) {
  SOMPI_REQUIRE(k <= n);
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  if (k == 0) {
    fn(idx);
    return;
  }
  for (;;) {
    fn(idx);
    // Advance: find the rightmost index that can still move right.
    std::size_t i = k;
    while (i-- > 0) {
      if (idx[i] + (k - i) < n) {
        ++idx[i];
        for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

/// Mixed-radix odometer in lexicographic order: the LAST digit varies
/// fastest, so between consecutive tuples only a suffix of digits changes
/// and the unchanged digits form a prefix. This is what makes incremental
/// (prefix-state) evaluation bit-identical to a from-scratch left-to-right
/// pass: a consumer that caches per-prefix partial products can resume the
/// fold at the lowest changed index and perform exactly the same sequence
/// of floating-point operations as a full re-evaluation.
///
/// skip_from(level) abandons every remaining tuple that shares digits
/// [0, level] with the current one — the branch-and-bound subtree cut.
class TupleOdometer {
 public:
  TupleOdometer() = default;
  explicit TupleOdometer(const std::vector<std::size_t>& radices) { reset(radices); }

  /// Restarts at the all-zero tuple over `radices`, reusing the buffers.
  void reset(const std::vector<std::size_t>& radices) {
    for (std::size_t r : radices) SOMPI_REQUIRE(r >= 1);
    radices_.assign(radices.begin(), radices.end());
    digits_.assign(radices_.size(), 0);
    done_ = false;
  }

  std::size_t size() const { return radices_.size(); }
  const std::vector<std::size_t>& digits() const { return digits_; }
  const std::vector<std::size_t>& radices() const { return radices_; }
  bool done() const { return done_; }

  /// Tuples in the subtree rooted at the current digits [0, level]: every
  /// combination of the digits below it (floating point — sizing only).
  double subtree_size(std::size_t level) const {
    double n = 1.0;
    for (std::size_t i = level + 1; i < radices_.size(); ++i)
      n *= static_cast<double>(radices_[i]);
    return n;
  }

  /// Advances to the next tuple; returns the lowest index whose digit
  /// changed, or size() when the enumeration is exhausted (done() becomes
  /// true). Digits below the returned index reset to 0.
  std::size_t advance() { return bump(radices_.size()); }

  /// Skips every remaining tuple sharing digits [0, level] with the current
  /// one, i.e. advances digit `level` directly. Same return convention as
  /// advance().
  std::size_t skip_from(std::size_t level) {
    SOMPI_REQUIRE(level < radices_.size());
    return bump(level + 1);
  }

 private:
  /// Advances the digit just above `from` (carrying upward), resetting every
  /// digit at or below `from` to 0.
  std::size_t bump(std::size_t from) {
    SOMPI_REQUIRE(!done_);
    for (std::size_t i = from; i < radices_.size(); ++i) digits_[i] = 0;
    std::size_t i = from;
    while (i-- > 0) {
      if (++digits_[i] < radices_[i]) return i;
      digits_[i] = 0;
    }
    done_ = true;
    return radices_.size();
  }

  std::vector<std::size_t> radices_;
  std::vector<std::size_t> digits_;
  bool done_ = false;
};

/// Binomial coefficient C(n, k) in floating point (sizing estimates only).
inline double binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0.0;
  double r = 1.0;
  for (std::size_t i = 0; i < k; ++i)
    r = r * static_cast<double>(n - i) / static_cast<double>(i + 1);
  return r;
}

}  // namespace sompi
