// Deterministic pseudo-random number generation.
//
// Experiments must be bit-reproducible across runs and platforms, so we ship
// our own xoshiro256** generator and our own distribution transforms instead
// of relying on implementation-defined std::*_distribution behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace sompi {

/// xoshiro256** 1.0 generator (Blackman & Vigna), seeded via SplitMix64.
///
/// Satisfies UniformRandomBitGenerator so it can also drive std algorithms,
/// but all sompi code uses the explicit member distributions below.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state deterministically from a single 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Fills `out` with uniform integers in [0, n): the same stream as
  /// out.size() uniform_index(n) calls, with the rejection threshold
  /// computed once.
  void uniform_indices(std::uint64_t n, std::span<std::size_t> out);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential with the given rate lambda > 0.
  double exponential(double lambda);

  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p in [0, 1].
  bool bernoulli(double p);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; use to give each simulation
  /// stream its own seed without correlating streams.
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 step — exposed for deterministic seed derivation in tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace sompi
