#include "core/failure_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "support/oracle_generators.h"
#include "trace/generator.h"

namespace sompi {
namespace {

FailureEstimationConfig config(std::size_t samples = 4000, std::size_t horizon = 50) {
  FailureEstimationConfig c;
  c.samples = samples;
  c.horizon_steps = horizon;
  return c;
}

TEST(FailureModel, ConstantPriceNeverFailsAboveIt) {
  const SpotTrace trace(0.25, std::vector<double>(100, 0.05));
  const FailureModel fm(trace, {0.04, 0.06}, config());
  // Bid below the price: instant out-of-bid, always.
  EXPECT_DOUBLE_EQ(fm.survival(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(fm.pmf(0, 0), 1.0);
  // Bid above the price: immortal.
  EXPECT_DOUBLE_EQ(fm.survival(1, 50), 1.0);
  EXPECT_DOUBLE_EQ(fm.expected_lifetime(1, 20.0), 20.0);
}

TEST(FailureModel, SurvivalMonotoneInTimeAndBid) {
  Rng rng(3);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 4000, 0.25, rng);
  const FailureModel fm(trace, logarithmic_bid_grid(trace.max_price(), 7), config());
  for (std::size_t b = 0; b < fm.bid_count(); ++b) {
    EXPECT_DOUBLE_EQ(fm.survival(b, 0), 1.0);
    for (std::size_t t = 1; t <= fm.horizon(); ++t)
      EXPECT_LE(fm.survival(b, t), fm.survival(b, t - 1) + 1e-12);
  }
  for (std::size_t b = 1; b < fm.bid_count(); ++b)
    for (std::size_t t = 0; t <= fm.horizon(); t += 7)
      EXPECT_GE(fm.survival(b, t), fm.survival(b - 1, t) - 1e-12) << "bid " << b << " t " << t;
}

TEST(FailureModel, PmfSumsToOne) {
  Rng rng(4);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kModerate, 0.05), 4000, 0.25, rng);
  const FailureModel fm(trace, logarithmic_bid_grid(trace.max_price(), 6), config());
  for (std::size_t b = 0; b < fm.bid_count(); ++b) {
    double total = 0.0;
    for (std::size_t t = 0; t <= fm.horizon(); ++t) total += fm.pmf(b, t);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(FailureModel, KnownPeriodicTrace) {
  // Price pattern: 9 low steps then 1 spike, repeating. With a bid between,
  // a run starting at a uniformly random offset first-passes at the next
  // spike: P[fp = k] = 1/10 for k in 0..9.
  std::vector<double> prices;
  for (int rep = 0; rep < 50; ++rep) {
    for (int i = 0; i < 9; ++i) prices.push_back(0.05);
    prices.push_back(1.0);
  }
  const SpotTrace trace(0.25, std::move(prices));
  const FailureModel fm(trace, {0.5}, config(20000, 30));
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(fm.pmf(0, k), 0.1, 0.02) << k;
  EXPECT_NEAR(fm.survival(0, 10), 0.0, 1e-12);
  // MTBF of a uniform{0..9} failure time is 4.5.
  EXPECT_NEAR(fm.mtbf(0), 4.5, 0.15);
  // E[min(fp, 5)] = (0+1+2+3+4)/10 + 5·(5/10) = 3.5.
  EXPECT_NEAR(fm.expected_lifetime(0, 5.0), 3.5, 0.1);
}

TEST(FailureModel, ExpectedPriceIsMeanBelowBid) {
  const SpotTrace trace(0.25, {0.02, 0.04, 0.06, 0.08, 1.0});
  const FailureModel fm(trace, {0.05, 2.0}, config(100, 5));
  EXPECT_DOUBLE_EQ(fm.expected_price(0), 0.03);
  EXPECT_DOUBLE_EQ(fm.expected_price(1), trace.mean_below(2.0));
  EXPECT_DOUBLE_EQ(fm.max_price(), 1.0);
}

TEST(FailureModel, FractionalLifetimeInterpolates) {
  const SpotTrace trace(0.25, std::vector<double>(100, 0.05));
  const FailureModel fm(trace, {0.06}, config(100, 50));
  EXPECT_DOUBLE_EQ(fm.expected_lifetime(0, 3.5), 3.5);
  EXPECT_DOUBLE_EQ(fm.survival_at(0, 2.3), 1.0);
}

TEST(FailureModel, EstimationIsDeterministicForSeed) {
  Rng rng(5);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.03), 2000, 0.25, rng);
  const FailureModel a(trace, {0.05, 0.1}, config());
  const FailureModel b(trace, {0.05, 0.1}, config());
  for (std::size_t t = 0; t <= a.horizon(); ++t) {
    EXPECT_DOUBLE_EQ(a.survival(0, t), b.survival(0, t));
    EXPECT_DOUBLE_EQ(a.survival(1, t), b.survival(1, t));
  }
}

TEST(FailureModel, TrainTestStability) {
  // §5.4.1: the failure-rate function estimated on 3 days predicts the 4th
  // day well. Train on the first 3/4, test on the last 1/4 of one long
  // stationary trace and compare survival curves.
  Rng rng(6);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kModerate, 0.05), 4 * 96 * 4, 0.25, rng);
  const SpotTrace train = trace.window(0, 3 * 96 * 4);
  const SpotTrace test = trace.window(3 * 96 * 4, 96 * 4);
  const auto bids = logarithmic_bid_grid(train.max_price(), 5);
  const FailureModel fm_train(train, bids, config(6000, 40));
  const FailureModel fm_test(test, bids, config(6000, 40));
  double max_diff = 0.0;
  for (std::size_t b = 0; b < bids.size(); ++b)
    for (std::size_t t = 0; t <= 40; t += 5)
      max_diff = std::max(max_diff, std::abs(fm_train.survival(b, t) - fm_test.survival(b, t)));
  EXPECT_LT(max_diff, 0.25);
}

TEST(BidGrids, LogarithmicShape) {
  const auto grid = logarithmic_bid_grid(8.0, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0], 1.0);
  EXPECT_DOUBLE_EQ(grid[1], 2.0);
  EXPECT_DOUBLE_EQ(grid[2], 4.0);
  EXPECT_DOUBLE_EQ(grid[3], 8.0);
}

TEST(BidGrids, UniformShape) {
  const auto grid = uniform_bid_grid(10.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0], 2.0);
  EXPECT_DOUBLE_EQ(grid[4], 10.0);
}

TEST(FailureModel, RejectsBadInputs) {
  const SpotTrace trace(0.25, {0.05});
  EXPECT_THROW(FailureModel(trace, {}, config()), PreconditionError);
  EXPECT_THROW(FailureModel(trace, {0.2, 0.1}, config()), PreconditionError);  // unsorted
  EXPECT_THROW(FailureModel(trace, {0.0}, config()), PreconditionError);       // zero bid
}

// ---------------------------------------------------------------------------
// Differential oracle: the estimator as one running-max pass per sampled start
// point, in draw order. The record-chain estimator in src/ must reproduce its
// survival curves, expected prices and MTBFs bit for bit.

struct ReferenceModel {
  std::size_t horizon = 0;
  std::vector<double> survival;  // [b * (horizon + 1) + t] = P[fp >= t]
  std::vector<double> expected_price;

  double surv(std::size_t b, std::size_t t) const { return survival[b * (horizon + 1) + t]; }

  double mtbf(std::size_t b) const {
    const double p_never = surv(b, horizon);
    if (p_never >= 1.0 - 1e-12) return static_cast<double>(horizon);
    double e = 0.0;
    for (std::size_t t = 0; t < horizon; ++t)
      e += std::max(0.0, surv(b, t) - surv(b, t + 1)) * static_cast<double>(t);
    e += p_never * static_cast<double>(horizon);
    return e;
  }
};

ReferenceModel reference_model(const SpotTrace& history, const std::vector<double>& bids_,
                               const FailureEstimationConfig& config) {
  ReferenceModel ref;
  const std::size_t horizon_ = ref.horizon = config.horizon_steps;
  for (double b : bids_) ref.expected_price.push_back(history.mean_below(b));

  const std::size_t width = horizon_ + 1;
  std::vector<std::size_t> failures(bids_.size() * width, 0);
  std::vector<std::size_t> never(bids_.size(), 0);
  Rng rng(config.seed);
  const std::size_t n = history.steps();
  std::vector<std::size_t> starts(config.samples);
  for (std::size_t s = 0; s < config.samples; ++s) starts[s] = rng.uniform_index(n);
  for (std::size_t s = 0; s < config.samples; ++s) {
    const std::size_t start = starts[s];
    // One running-max pass kills bids in ascending order: once the running
    // max exceeds bids_[next], that bid's first passage is the current step.
    std::size_t next = 0;  // lowest still-alive bid index
    double run_max = 0.0;
    for (std::size_t t = 0; t <= horizon_ && next < bids_.size(); ++t) {
      std::size_t idx = start + t;
      if (idx >= n) {
        if (!config.wrap) break;
        idx %= n;
      }
      run_max = std::max(run_max, history.price(idx));
      while (next < bids_.size() && bids_[next] < run_max) {
        failures[next * width + t] += 1;
        ++next;
      }
    }
    for (std::size_t b = next; b < bids_.size(); ++b) ++never[b];
  }

  ref.survival.assign(bids_.size() * width, 0.0);
  const auto g = static_cast<double>(config.samples);
  for (std::size_t b = 0; b < bids_.size(); ++b) {
    double alive = g;
    for (std::size_t t = 0; t < width; ++t) {
      ref.survival[b * width + t] = alive / g;
      alive -= static_cast<double>(failures[b * width + t]);
    }
    EXPECT_EQ(alive, static_cast<double>(never[b]));
  }
  return ref;
}

// Returns the number of mismatching values (0 = bit-identical).
std::size_t expect_matches_reference(const SpotTrace& trace, const std::vector<double>& bids,
                                     const FailureEstimationConfig& cfg) {
  const FailureModel fm(trace, bids, cfg);
  const ReferenceModel ref = reference_model(trace, bids, cfg);
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < bids.size(); ++b) {
    mismatches += fm.expected_price(b) != ref.expected_price[b];
    mismatches += fm.mtbf(b) != ref.mtbf(b);
    for (std::size_t t = 0; t <= cfg.horizon_steps; ++t)
      mismatches += fm.survival(b, t) != ref.surv(b, t);
  }
  EXPECT_EQ(mismatches, 0u) << "n=" << trace.steps() << " bids=" << bids.size()
                            << " G=" << cfg.samples << " H=" << cfg.horizon_steps
                            << " wrap=" << cfg.wrap << " seed=" << cfg.seed;
  return mismatches;
}

TEST(FailureModelOracle, RandomSweepMatchesPerSampleScanBitForBit) {
  Rng rng(0x0AC1E);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t n = rng.bernoulli(0.1) ? 1 : 1 + rng.uniform_index(120);
    std::vector<double> prices;
    if (rng.bernoulli(0.5)) {
      prices = tied_prices(n, 1 + rng.uniform_index(4), rng);
    } else {
      prices.resize(n);
      for (double& p : prices) p = rng.uniform(0.0, 0.05);
    }
    const SpotTrace trace(0.25, prices);
    FailureEstimationConfig cfg;
    // Dense (G >> n) and sparse draws; H from 1 to past 2n.
    cfg.samples = 1 + rng.uniform_index(rng.bernoulli(0.5) ? 600 : 20);
    cfg.horizon_steps = 1 + rng.uniform_index(2 * n + 8);
    cfg.wrap = rng.bernoulli(0.5);
    cfg.seed = rng();
    // One reported configuration is enough to debug; stop at the first.
    if (expect_matches_reference(trace, random_bids(prices, rng), cfg) > 0) break;
  }
}

TEST(FailureModelOracle, PaperScaleAndSparseTracesMatchPerSampleScan) {
  Rng rng(0x5EED);
  // The campaign setting: a two-day lookback, 7 log-grid bids, G=2000, H=400.
  const SpotTrace lookback =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 192, 0.25, rng);
  FailureEstimationConfig cfg;
  cfg.samples = 2000;
  cfg.horizon_steps = 400;
  for (const bool wrap : {true, false}) {
    cfg.wrap = wrap;
    expect_matches_reference(lookback, logarithmic_bid_grid(lookback.max_price(), 7), cfg);
  }
  // Sparse: G·H far below n, so the sampled horizons rarely overlap.
  const SpotTrace long_trace =
      generate_trace(regime_params_for(VolatilityClass::kModerate, 0.05), 40000, 0.25, rng);
  cfg.samples = 200;
  cfg.horizon_steps = 60;
  for (const bool wrap : {true, false}) {
    cfg.wrap = wrap;
    expect_matches_reference(long_trace, logarithmic_bid_grid(long_trace.max_price(), 6), cfg);
  }
  // Dense: G >> n with a horizon past n.
  const SpotTrace short_trace(0.25, tied_prices(7, 3, rng));
  cfg.samples = 5000;
  cfg.horizon_steps = 20;
  for (const bool wrap : {true, false}) {
    cfg.wrap = wrap;
    expect_matches_reference(short_trace, {0.005, 0.01, 0.01, 0.02, 0.5}, cfg);
  }
}

// ---------------------------------------------------------------------------
// Resumed expected-price sums: a model built with the previous model of a
// growing history as its prefix must equal a fresh model bit for bit, and
// must read only the appended steps — or every step whenever the prefix
// cannot be proven (moved bid grid, forked lineage, window/tail copies,
// shorter history).

// Returns the number of values on which the two models differ.
std::size_t model_mismatches(const FailureModel& got, const FailureModel& want) {
  std::size_t mismatches = got.bid_count() != want.bid_count();
  for (std::size_t b = 0; b < std::min(got.bid_count(), want.bid_count()); ++b) {
    mismatches += got.expected_price(b) != want.expected_price(b);
    mismatches += got.mtbf(b) != want.mtbf(b);
    for (std::size_t t = 0; t <= want.horizon(); ++t)
      mismatches += got.survival(b, t) != want.survival(b, t);
  }
  return mismatches;
}

TEST(FailureModelResume, ExtensionChainsMatchFreshModelsBitForBit) {
  Rng rng(0x2E5E);
  std::size_t resumed_links = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n0 = 1 + rng.uniform_index(60);
    SpotTrace trace(0.25, random_prices(n0, rng));
    const std::vector<double> bids = random_bids(trace.prices(), rng);
    FailureEstimationConfig cfg;
    cfg.samples = 1 + rng.uniform_index(rng.bernoulli(0.5) ? 400 : 20);
    cfg.horizon_steps = 1 + rng.uniform_index(2 * n0 + 8);
    cfg.wrap = rng.bernoulli(0.5);
    cfg.seed = rng();
    FailureModel prev(trace, bids, cfg);
    ASSERT_EQ(prev.price_steps_read(), n0);
    const std::size_t links = 1 + rng.uniform_index(20);
    for (std::size_t link = 0; link < links; ++link) {
      const std::size_t more = rng.uniform_index(41);
      const std::size_t before = trace.steps();
      trace = trace.extended(random_prices(more, rng));
      FailureModel resumed(trace, bids, cfg, &prev);
      const FailureModel fresh(trace, bids, cfg);
      ASSERT_EQ(resumed.price_steps_read(), more) << "iter " << iter << " link " << link;
      ASSERT_EQ(model_mismatches(resumed, fresh), 0u)
          << "iter " << iter << " link " << link << " n=" << before << "+" << more
          << " H=" << cfg.horizon_steps << " wrap=" << cfg.wrap;
      // And both equal one plain trace-order pass over the whole history.
      for (std::size_t b = 0; b < bids.size(); ++b) {
        double sum = 0.0;
        std::size_t count = 0;
        for (double p : trace.prices()) {
          if (p <= bids[b]) {
            sum += p;
            ++count;
          }
        }
        ASSERT_EQ(resumed.expected_price(b), count == 0 ? 0.0 : sum / static_cast<double>(count));
      }
      prev = std::move(resumed);
      ++resumed_links;
    }
  }
  EXPECT_GT(resumed_links, 400u);
}

TEST(FailureModelResume, InPlaceAppendsAndCopiesResume) {
  Rng rng(0xA99E);
  SpotTrace trace(0.25, random_prices(50, rng));
  const std::vector<double> bids = random_bids(trace.prices(), rng);
  const FailureEstimationConfig cfg = config(300, 30);
  const FailureModel base(trace, bids, cfg);
  // A copy is the same history: nothing new to read.
  const SpotTrace copy = trace;
  EXPECT_EQ(FailureModel(copy, bids, cfg, &base).price_steps_read(), 0u);
  trace.append(0.02);
  trace.append(std::vector<double>{0.0, 0.03});
  const FailureModel resumed(trace, bids, cfg, &base);
  EXPECT_EQ(resumed.price_steps_read(), 3u);
  EXPECT_EQ(model_mismatches(resumed, FailureModel(trace, bids, cfg)), 0u);
}

TEST(FailureModelResume, FallsBackToAFullPassWhenThePrefixIsUnproven) {
  Rng rng(0xFA11);
  const SpotTrace base =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 80, 0.25, rng);
  const FailureEstimationConfig cfg = config(500, 40);
  const std::vector<double> bids = logarithmic_bid_grid(base.max_price(), 5);
  const FailureModel prefix(base, bids, cfg);

  // Asserts `history` is rebuilt from step 0 despite the prefix, and equals
  // the fresh model.
  const auto expect_full_pass = [&](const SpotTrace& history, const std::vector<double>& grid,
                                    const char* why) {
    const FailureModel got(history, grid, cfg, &prefix);
    EXPECT_EQ(got.price_steps_read(), history.steps()) << why;
    EXPECT_EQ(model_mismatches(got, FailureModel(history, grid, cfg)), 0u) << why;
  };

  // The bid grid moved: a new maximum raised its top.
  const SpotTrace higher = base.extended({base.max_price() * 2.0});
  expect_full_pass(higher, logarithmic_bid_grid(higher.max_price(), 5), "grid top moved");
  // Same content, but bids that differ in one bit.
  std::vector<double> nudged = bids;
  nudged.back() = std::nextafter(nudged.back(), 0.0);
  expect_full_pass(base, nudged, "bids not bit-equal");

  // A fork: `higher` already extended `base`, so a second, different
  // extension of `base` leaves the lineage and must not resume.
  const SpotTrace fork = base.extended({0.0, 0.0, 0.0});
  EXPECT_NE(fork.lineage(), base.lineage());
  expect_full_pass(fork, bids, "forked lineage");

  // window() and tail_hours() copies start new lineages, even unshortened.
  expect_full_pass(base.window(0, base.steps()), bids, "window");
  expect_full_pass(base.tail_hours(base.span_hours()), bids, "tail_hours");

  // A shorter history of the same lineage: the prefix model covers more
  // steps than the history holds.
  const FailureModel longer(higher, bids, cfg);
  const FailureModel shorter(base, bids, cfg, &longer);
  EXPECT_EQ(shorter.price_steps_read(), base.steps());
  EXPECT_EQ(model_mismatches(shorter, prefix), 0u);
}

// ---------------------------------------------------------------------------
// Horizon views: a model built at horizon H and read through h < H must equal
// a model built at h bit for bit, on every query the cost model makes — the
// rule that lets one model per market group serve every app.

// Returns the number of values on which the view differs from the model
// built at its horizon.
std::size_t view_mismatches(const FailureModel& view, const FailureModel& want) {
  std::size_t mismatches = (view.horizon() != want.horizon()) + (view.bids() != want.bids());
  const std::size_t h = want.horizon();
  const double hd = static_cast<double>(h);
  for (std::size_t b = 0; b < want.bid_count(); ++b) {
    mismatches += view.expected_price(b) != want.expected_price(b);
    mismatches += view.mtbf(b) != want.mtbf(b);
    for (std::size_t t = 0; t <= h + 2; ++t)  // past h: both clamp
      mismatches += view.survival(b, t) != want.survival(b, t);
    for (std::size_t t = 0; t <= h; ++t) mismatches += view.pmf(b, t) != want.pmf(b, t);
    for (const double w : {0.0, 0.5, 1.0, hd / 2.0 + 0.25, hd - 0.5, hd, hd + 3.5}) {
      mismatches += view.expected_lifetime(b, w) != want.expected_lifetime(b, w);
      mismatches += view.survival_at(b, w) != want.survival_at(b, w);
    }
  }
  return mismatches;
}

TEST(FailureModelView, ShorterHorizonsMatchModelsBuiltThereBitForBit) {
  Rng rng(0x71E3);
  std::size_t views = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(120);
    const SpotTrace trace(0.25, random_prices(n, rng));
    const std::vector<double> bids = random_bids(trace.prices(), rng);
    FailureEstimationConfig cfg;
    cfg.samples = 1 + rng.uniform_index(rng.bernoulli(0.5) ? 600 : 20);
    cfg.horizon_steps = 2 + rng.uniform_index(2 * n + 8);
    cfg.seed = rng();
    for (const bool wrap : {true, false}) {
      cfg.wrap = wrap;
      const FailureModel full(trace, bids, cfg);
      for (int k = 0; k < 5; ++k) {
        FailureEstimationConfig at = cfg;
        at.horizon_steps = 1 + rng.uniform_index(cfg.horizon_steps - 1);  // h < H
        const FailureModel view = full.view(at.horizon_steps);
        ASSERT_EQ(view_mismatches(view, FailureModel(trace, bids, at)), 0u)
            << "iter " << iter << " n=" << n << " H=" << cfg.horizon_steps
            << " h=" << at.horizon_steps << " G=" << cfg.samples << " wrap=" << wrap;
        // A view shares the tables: no copy of any row.
        ASSERT_EQ(&view.bids(), &full.bids());
        ASSERT_EQ(view.built_horizon(), cfg.horizon_steps);
        ++views;
      }
    }
  }
  EXPECT_EQ(views, 3000u);
}

TEST(FailureModelView, PaperScaleGridAndHorizonBounds) {
  Rng rng(0x9A9E);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 2000, 0.25, rng);
  const std::vector<double> bids = logarithmic_bid_grid(trace.max_price(), 7);
  FailureEstimationConfig cfg = config(2000, 400);
  for (const bool wrap : {true, false}) {
    cfg.wrap = wrap;
    const FailureModel full(trace, bids, cfg);
    for (const std::size_t h : {1, 37, 100, 250, 399, 400}) {
      FailureEstimationConfig at = cfg;
      at.horizon_steps = h;
      EXPECT_EQ(view_mismatches(full.view(h), FailureModel(trace, bids, at)), 0u)
          << "h=" << h << " wrap=" << wrap;
    }
    EXPECT_THROW((void)full.view(0), PreconditionError);
    EXPECT_THROW((void)full.view(401), PreconditionError);
  }
}

}  // namespace
}  // namespace sompi
