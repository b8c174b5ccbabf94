#include "trace/spot_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>

#include "common/error.h"

namespace sompi {
namespace {

SpotTrace make_trace() { return SpotTrace(0.5, {1.0, 2.0, 0.5, 3.0, 1.5}); }

TEST(SpotTrace, BasicQueries) {
  const SpotTrace t = make_trace();
  EXPECT_EQ(t.steps(), 5u);
  EXPECT_DOUBLE_EQ(t.step_hours(), 0.5);
  EXPECT_DOUBLE_EQ(t.span_hours(), 2.5);
  EXPECT_DOUBLE_EQ(t.price(3), 3.0);
  EXPECT_DOUBLE_EQ(t.max_price(), 3.0);
  EXPECT_DOUBLE_EQ(t.min_price(), 0.5);
}

TEST(SpotTrace, PriceAtHoursMapsToSteps) {
  const SpotTrace t = make_trace();
  EXPECT_DOUBLE_EQ(t.price_at_hours(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.price_at_hours(0.49), 1.0);
  EXPECT_DOUBLE_EQ(t.price_at_hours(0.5), 2.0);
  // Past the end clamps to the last step.
  EXPECT_DOUBLE_EQ(t.price_at_hours(100.0), 1.5);
}

TEST(SpotTrace, MeanBelowBid) {
  const SpotTrace t = make_trace();
  EXPECT_DOUBLE_EQ(t.mean_below(1.0), 0.75);       // {1.0, 0.5}
  EXPECT_DOUBLE_EQ(t.mean_below(10.0), 8.0 / 5.0); // all
  EXPECT_DOUBLE_EQ(t.mean_below(0.1), 0.0);        // none
}

TEST(SpotTrace, Availability) {
  const SpotTrace t = make_trace();
  EXPECT_DOUBLE_EQ(t.availability(1.5), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(t.availability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.availability(3.0), 1.0);
}

TEST(SpotTrace, FirstExceed) {
  const SpotTrace t = make_trace();
  EXPECT_EQ(t.first_exceed(0, 1.5), 1u);  // price 2.0 at step 1
  EXPECT_EQ(t.first_exceed(2, 1.5), 1u);  // price 3.0 at step 3, offset 1
  EXPECT_EQ(t.first_exceed(0, 3.0), SpotTrace::kNever);
  EXPECT_EQ(t.first_exceed(4, 2.0), SpotTrace::kNever);
}

TEST(SpotTrace, WindowAndTail) {
  const SpotTrace t = make_trace();
  const SpotTrace w = t.window(1, 2);
  EXPECT_EQ(w.steps(), 2u);
  EXPECT_DOUBLE_EQ(w.price(0), 2.0);
  // Window clamps to the end.
  EXPECT_EQ(t.window(4, 10).steps(), 1u);
  // Tail of 1 hour = 2 steps of 0.5 h.
  const SpotTrace tail = t.tail_hours(1.0);
  EXPECT_EQ(tail.steps(), 2u);
  EXPECT_DOUBLE_EQ(tail.price(0), 3.0);
  // A tail longer than the trace returns everything.
  EXPECT_EQ(t.tail_hours(100.0).steps(), 5u);
}

TEST(SpotTrace, Append) {
  SpotTrace t = make_trace();
  t.append(SpotTrace(0.5, {9.0}));
  EXPECT_EQ(t.steps(), 6u);
  EXPECT_DOUBLE_EQ(t.max_price(), 9.0);
  EXPECT_THROW(t.append(SpotTrace(1.0, {1.0})), PreconditionError);
}

TEST(SpotTrace, RejectsNegativePricesAndBadStep) {
  EXPECT_THROW(SpotTrace(0.5, {-1.0}), PreconditionError);
  EXPECT_THROW(SpotTrace(0.0, {1.0}), PreconditionError);
}

// --- Price queries vs independent naive O(n) scans. ---

double naive_mean_below(const SpotTrace& t, double bid) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double p : t.prices())
    if (p <= bid) {
      sum += p;
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

TEST(SpotTraceIndex, MeanBelowMatchesNaiveScanBitwise) {
  // mean_below must return the naive scan's exact bits — the failure
  // model's expected prices feed golden-pinned plan fingerprints.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> price(0.0, 2.0);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> prices(257);
    for (double& p : prices) p = price(rng);
    if (round % 3 == 0)  // duplicate-heavy traces stress the tie handling
      for (std::size_t i = 0; i + 1 < prices.size(); i += 2) prices[i] = prices[i + 1];
    const SpotTrace t(0.25, prices);
    for (int q = 0; q < 50; ++q) {
      // Mix arbitrary bids with exact price points (threshold ties).
      const double bid = q % 2 == 0 ? price(rng) : prices[rng() % prices.size()];
      const double fast = t.mean_below(bid);
      const double naive = naive_mean_below(t, bid);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast), std::bit_cast<std::uint64_t>(naive))
          << "round " << round << " bid " << bid;
      EXPECT_DOUBLE_EQ(t.availability(bid),
                       static_cast<double>(std::count_if(
                           prices.begin(), prices.end(),
                           [&](double p) { return p <= bid; })) /
                           static_cast<double>(prices.size()));
    }
    EXPECT_DOUBLE_EQ(t.max_price(), *std::max_element(prices.begin(), prices.end()));
    EXPECT_DOUBLE_EQ(t.min_price(), *std::min_element(prices.begin(), prices.end()));
  }
}

TEST(SpotTraceIndex, AppendInvalidatesTheIndex) {
  SpotTrace t(0.5, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.mean_below(1.5), 1.0);
  t.append(SpotTrace(0.5, {0.5}));
  EXPECT_DOUBLE_EQ(t.mean_below(1.5), 0.75);  // sees the appended step
  EXPECT_DOUBLE_EQ(t.max_price(), 2.0);
  EXPECT_DOUBLE_EQ(t.min_price(), 0.5);
}

TEST(SpotTraceIndex, CopiesQueryIndependently) {
  SpotTrace t(0.5, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(t.mean_below(10.0), 2.0);
  SpotTrace copy = t;
  EXPECT_DOUBLE_EQ(copy.mean_below(1.0), 1.0);
  copy = SpotTrace(0.5, {5.0});
  EXPECT_DOUBLE_EQ(copy.max_price(), 5.0);
  EXPECT_DOUBLE_EQ(t.mean_below(10.0), 2.0);  // original unaffected
}

TEST(SpotTraceIndex, PointAppendMatchesFreshTraceBitwise) {
  // The feed pipeline's hot path: point appends interleaved with queries.
  // After every append the trace must answer exactly like one constructed
  // from scratch over the same series — stale extremes or means would leak
  // into the failure model's expected prices and shift plan fingerprints.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> price(0.0, 2.0);
  std::vector<double> prices;
  SpotTrace live(0.25, {});
  for (int i = 0; i < 200; ++i) {
    const double p = price(rng);
    prices.push_back(p);
    live.append(p);
    if (i % 7 != 0) continue;  // query on a subset
    const SpotTrace fresh(0.25, prices);
    const double bid = i % 2 == 0 ? price(rng) : prices[rng() % prices.size()];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(live.mean_below(bid)),
              std::bit_cast<std::uint64_t>(fresh.mean_below(bid)))
        << "after append " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(live.availability(bid)),
              std::bit_cast<std::uint64_t>(fresh.availability(bid)));
    EXPECT_DOUBLE_EQ(live.max_price(), fresh.max_price());
    EXPECT_DOUBLE_EQ(live.min_price(), fresh.min_price());
  }
  EXPECT_EQ(live.steps(), prices.size());
}

TEST(SpotTraceIndex, BatchAppendInvalidatesWarmIndex) {
  SpotTrace t(0.5, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.mean_below(2.5), 1.5);
  t.append(std::vector<double>{0.5, 4.0});
  EXPECT_DOUBLE_EQ(t.mean_below(2.5), (1.0 + 2.0 + 0.5) / 3.0);
  EXPECT_DOUBLE_EQ(t.max_price(), 4.0);
  EXPECT_DOUBLE_EQ(t.min_price(), 0.5);
  EXPECT_THROW(t.append(-0.1), PreconditionError);
  EXPECT_THROW(t.append(std::vector<double>{1.0, -2.0}), PreconditionError);
}

TEST(SpotTrace, HistogramCoversPrices) {
  const SpotTrace t = make_trace();
  const Histogram h = t.histogram(0.0, 4.0, 4);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 1u);  // 0.5
  EXPECT_EQ(h.count(1), 2u);  // 1.0, 1.5
  EXPECT_EQ(h.count(2), 1u);  // 2.0
  EXPECT_EQ(h.count(3), 1u);  // 3.0
}

}  // namespace
}  // namespace sompi
