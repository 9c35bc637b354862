#include "src/util/rng.h"

#include <cmath>

#include "src/util/error.h"

namespace fa {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::derive_seed(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index) {
  // Three rounds of splitmix64 over a mix of the inputs; each input is
  // pre-multiplied by a distinct odd constant so (seed, stream, index)
  // triples that differ in any coordinate land in unrelated streams.
  std::uint64_t sm = seed;
  sm ^= splitmix64(sm) + stream * 0xd1342543de82ef95ULL;
  sm ^= splitmix64(sm) + index * 0x9e3779b97f4a7c15ULL;
  return splitmix64(sm);
}

Rng Rng::fork(std::uint64_t stream_id) {
  // Mix the stream id with fresh output so sibling streams are decorrelated.
  std::uint64_t sm = next_u64() ^ (stream_id * 0xd1342543de82ef95ULL + 1);
  Rng child(0);
  for (auto& s : child.s_) s = splitmix64(sm);
  return child;
}

double Rng::normal_polar() {
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "Rng::normal: negative stddev");
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  require(rate > 0.0, "Rng::exponential: rate must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  require(mean >= 0.0, "Rng::poisson: negative mean");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = uniform();
    while (p > limit) {
      ++k;
      p *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for the large
  // aggregate counts where it is used (background ticket volumes).
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

bool Rng::bernoulli(double p) {
  return uniform() < p;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  require(!weights.empty(), "Rng::weighted_index: empty weights");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "Rng::weighted_index: negative weight");
    total += w;
  }
  require(total > 0.0, "Rng::weighted_index: zero total weight");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace fa
