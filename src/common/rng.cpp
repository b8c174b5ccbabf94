#include "common/rng.h"

#include <cmath>

namespace sompi {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits give a uniform double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SOMPI_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  SOMPI_REQUIRE(n > 0);
  // Rejection sampling over the largest multiple of n below 2^64.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

void Rng::uniform_indices(std::uint64_t n, std::span<std::size_t> out) {
  SOMPI_REQUIRE(n > 0);
  const std::uint64_t threshold = (0 - n) % n;
  for (std::size_t& x : out) {
    std::uint64_t r = (*this)();
    while (r < threshold) r = (*this)();
    x = static_cast<std::size_t>(r % n);
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SOMPI_REQUIRE(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  // Box–Muller; discard the second variate to keep the stream stateless.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double sigma) {
  SOMPI_REQUIRE(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::exponential(double lambda) {
  SOMPI_REQUIRE(lambda > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) {
  SOMPI_REQUIRE(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    SOMPI_REQUIRE_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  SOMPI_REQUIRE_MSG(total > 0.0, "categorical needs a positive weight");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // guard against floating-point underrun
}

Rng Rng::split() {
  // Two raw outputs mixed through SplitMix64 give an independent stream.
  std::uint64_t mix = (*this)() ^ 0xD1B54A32D192ED03ULL;
  const std::uint64_t derived = splitmix64(mix) ^ (*this)();
  return Rng(derived);
}

}  // namespace sompi
