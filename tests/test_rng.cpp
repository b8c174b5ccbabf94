#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace sompi {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// --- Seed-stability goldens --------------------------------------------------
// Exact sequences for fixed seeds, captured from the reference implementation.
// Any platform or refactor drift in xoshiro256**, the SplitMix64 seeding, the
// rejection sampler, or the Box–Muller transform breaks reproducibility of
// every experiment in the repo — these goldens catch it immediately.

TEST(RngGolden, RawOutputMatchesKnownSequence) {
  Rng r(42);
  const std::uint64_t expected[] = {
      1546998764402558742ULL,  6990951692964543102ULL,  12544586762248559009ULL,
      17057574109182124193ULL, 18295552978065317476ULL, 14199186830065750584ULL,
      13267978908934200754ULL, 15679888225317814407ULL,
  };
  for (std::uint64_t e : expected) EXPECT_EQ(r(), e);

  Rng d;  // default seed = 0x9E3779B97F4A7C15
  const std::uint64_t expected_default[] = {
      4768932952251265552ULL, 16168679545894742312ULL, 6487188721686299062ULL,
      86499648889209533ULL,
  };
  for (std::uint64_t e : expected_default) EXPECT_EQ(d(), e);
}

TEST(RngGolden, SplitMix64MatchesReferenceVector) {
  std::uint64_t state = 0;
  const std::uint64_t expected[] = {
      16294208416658607535ULL, 7960286522194355700ULL, 487617019471545679ULL,
      17909611376780542444ULL,
  };
  for (std::uint64_t e : expected) EXPECT_EQ(splitmix64(state), e);
}

TEST(RngGolden, UniformIndexRejectionSamplingIsStable) {
  // Covers the rejection path: the sequence depends on exactly how many raw
  // draws each call consumes, so any change to the threshold logic shifts it.
  Rng r(7);
  const std::uint64_t expected10[] = {4, 4, 8, 4, 4, 1, 6, 6, 8, 9};
  for (std::uint64_t e : expected10) EXPECT_EQ(r.uniform_index(10), e);

  Rng big(123);
  const std::uint64_t expected_big[] = {571221054, 513289293, 130136654,
                                        807993844, 671173952, 654409057};
  for (std::uint64_t e : expected_big) EXPECT_EQ(big.uniform_index(1000000007ULL), e);
}

TEST(RngGolden, UniformIndicesReproduceTheUniformIndexGoldens) {
  Rng r(7);
  std::vector<std::size_t> got(10);
  r.uniform_indices(10, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{4, 4, 8, 4, 4, 1, 6, 6, 8, 9}));

  Rng big(123);
  got.resize(6);
  big.uniform_indices(1000000007ULL, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{571221054, 513289293, 130136654, 807993844,
                                           671173952, 654409057}));
}

TEST(Rng, UniformIndicesEqualRepeatedUniformIndexCalls) {
  // n = 2^63 + 1 rejects almost half of the raw draws, so the batch must
  // consume exactly as many as the calls do for the streams to stay aligned.
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{1000},
                                (std::uint64_t{1} << 63) + 1}) {
    Rng one(99), batch(99);
    std::vector<std::size_t> got(257);
    batch.uniform_indices(n, got);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], one.uniform_index(n)) << "n " << n << " draw " << i;
    EXPECT_EQ(batch(), one()) << "n " << n;
  }
  EXPECT_THROW(Rng(1).uniform_indices(0, {}), PreconditionError);
}

TEST(RngGolden, UniformDoublesAreStable) {
  Rng r(5);
  const double expected[] = {0.28841122817023568, 0.60208233313201065,
                             0.64954673055102219, 0.82155025770641721,
                             0.51671391390763999, 0.78452395188688107};
  for (double e : expected) EXPECT_DOUBLE_EQ(r.uniform(), e);
}

TEST(RngGolden, NormalBoxMullerIsStable) {
  // Depends on libm's log/cos as well as our transform; drift here means
  // normal-driven traces are no longer reproducible across platforms.
  Rng r(99);
  const double expected[] = {-1.3357837283988609,  0.85903068514983594,
                             0.19029370097646225,  1.4929248051068393,
                             -0.49924810917931955, 0.36187554548590356};
  for (double e : expected) EXPECT_NEAR(r.normal(), e, 1e-12);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) { EXPECT_THROW(Rng(1).uniform_index(0), PreconditionError); }

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> counts(3, 0.0);
  const int n = 90000;
  for (int i = 0; i < n; ++i) counts[rng.categorical({1.0, 2.0, 3.0})] += 1.0;
  EXPECT_NEAR(counts[0] / n, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(counts[1] / n, 2.0 / 6.0, 0.01);
  EXPECT_NEAR(counts[2] / n, 3.0 / 6.0, 0.01);
}

TEST(Rng, CategoricalRejectsAllZero) {
  EXPECT_THROW(Rng(1).categorical({0.0, 0.0}), PreconditionError);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  // The child stream should not reproduce the parent stream.
  Rng parent2(21);
  (void)parent2.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child() == parent()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(33), b(33);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(44);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace sompi
