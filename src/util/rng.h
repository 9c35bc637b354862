// Deterministic, fast random number generation for simulation.
//
// xoshiro256** seeded via splitmix64. We implement our own engine (rather
// than relying on std::mt19937_64) so that traces are bit-reproducible across
// standard libraries and platforms -- a requirement for regenerating the
// paper's tables deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/error.h"

namespace fa {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Derives an independent stream; used to give each simulated subsystem /
  // machine its own generator so population changes don't shift other draws.
  Rng fork(std::uint64_t stream_id);

  // Counter-based stream derivation: a seed for work item `index` of the
  // named `stream` under a root `seed`. Unlike fork(), this consumes no
  // generator state, so `Rng(derive_seed(seed, stream, index))` can be
  // constructed independently for every item of a parallel loop — the basis
  // of the bit-identical serial/parallel guarantee (see docs/SCHEMA.md).
  static std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t index = 0);

  // The per-draw members are defined inline below: the simulator makes
  // hundreds of millions of draws per scale-8 trace.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Standard normal via polar (Marsaglia) method. Each polar step yields two
  // variates; the second is cached and served by the next call.
  double normal();
  double normal(double mean, double stddev);

  // Exponential with given rate (mean = 1/rate).
  double exponential(double rate);

  // Poisson(mean); Knuth for small means, PTRS-style normal approx fallback.
  std::uint64_t poisson(double mean);

  // Bernoulli trial.
  bool bernoulli(double p);

  // Index drawn according to (unnormalized, non-negative) weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // The polar step of normal(): returns one variate and caches the other.
  double normal_polar();

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline std::uint64_t Rng::next_u64() {
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

inline double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

inline std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo > hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % range);
}

inline double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  return normal_polar();
}

}  // namespace fa
