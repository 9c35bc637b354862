#include "src/util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/error.h"

namespace fa {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(7), parent2(7);
  Rng a = parent1.fork(1);
  Rng b = parent2.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  Rng parent3(7);
  Rng c = parent3.fork(2);
  Rng parent4(7);
  Rng d = parent4.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += c.next_u64() == d.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++seen[static_cast<std::size_t>(v - 2)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 each
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(19);
  for (double mean : {0.5, 3.0, 80.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.03) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(23);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(37);
  EXPECT_THROW(rng.weighted_index({}), Error);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), Error);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), Error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// The first three draws of every distribution member, as bit patterns, for
// two seeds, recorded from the out-of-line implementation. Simulated traces
// are pinned only as a whole elsewhere; this pins each draw, so moving a
// member into the header (or any other refactor) must keep every expression
// bit for bit.
TEST(Rng, DrawsMatchRecordedBits) {
  using Draw = std::function<std::uint64_t(Rng&)>;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::pair<const char*, Draw> draws[] = {
      {"next_u64", [](Rng& r) { return r.next_u64(); }},
      {"uniform", [&](Rng& r) { return bits(r.uniform()); }},
      {"uniform(lo,hi)", [&](Rng& r) { return bits(r.uniform(-3.5, 7.25)); }},
      {"uniform_int",
       [](Rng& r) {
         return static_cast<std::uint64_t>(r.uniform_int(-5, 1000));
       }},
      {"normal", [&](Rng& r) { return bits(r.normal()); }},
      {"normal(m,s)", [&](Rng& r) { return bits(r.normal(10.0, 2.5)); }},
      {"exponential", [&](Rng& r) { return bits(r.exponential(0.7)); }},
      {"poisson(3.2)", [](Rng& r) { return r.poisson(3.2); }},
      {"poisson(45)", [](Rng& r) { return r.poisson(45.0); }},
      {"bernoulli",
       [](Rng& r) {  // eight trials, packed low bit first
         std::uint64_t packed = 0;
         for (int i = 0; i < 8; ++i) {
           packed |= std::uint64_t{r.bernoulli(0.3)} << i;
         }
         return packed;
       }},
  };
  const std::uint64_t seeds[] = {1, 20140623};
  const std::uint64_t recorded[2][std::size(draws)][3] = {
      {
          {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL,
           0x92f89756082a4514ULL},  // next_u64
          {0x3fe67e55eda1f8e2ULL, 0x3fe0a76ab2c8e6c9ULL,
           0x3fe25f12eac10548ULL},  // uniform
          {0x401039c37751a670ULL, 0x4000c1eec07bec3cULL,
           0x40055f82d6e6be32ULL},  // uniform(lo,hi)
          {0x000000000000025eULL, 0x0000000000000269ULL,
           0x00000000000003b3ULL},  // uniform_int
          {0x3ffe267c87ac62ebULL, 0x3fc84abd879d0e18ULL,
           0x3ff4d55c9633557cULL},  // normal
          {0x402d6c06ea65deeaULL, 0x4024f2eb674c228dULL,
           0x402a82aceef00ab7ULL},  // normal(m,s)
          {0x3fe01d5e8a71aeafULL, 0x3feddafc5dbe635cULL,
           0x3fe95e677086d00dULL},  // exponential
          {0x0000000000000005ULL, 0x0000000000000001ULL,
           0x0000000000000008ULL},  // poisson(3.2)
          {0x000000000000003aULL, 0x000000000000002eULL,
           0x0000000000000036ULL},  // poisson(45)
          {0x0000000000000060ULL, 0x0000000000000000ULL,
           0x000000000000000dULL},  // bernoulli
      },
      {
          {0xe405a024ebef14e0ULL, 0x918d1c89d0c78958ULL,
           0x207a79a08ca4ed15ULL},  // next_u64
          {0x3fec80b4049d7de2ULL, 0x3fe231a3913a18f1ULL,
           0x3fc03d3cd0465274ULL},  // uniform
          {0x40184cf1e633a128ULL, 0x4004e567964c2308ULL,
           0xc00116db2410c09aULL},  // uniform(lo,hi)
          {0x0000000000000073ULL, 0x00000000000002efULL,
           0x00000000000003b8ULL},  // uniform_int
          {0x3fee540e66c58dd4ULL, 0x3fc5498c3e4ad6dbULL,
           0xbff1482a4b97d6d3ULL},  // normal
          {0x4028bd22400ede29ULL, 0x4024d4df7a6eec65ULL,
           0x401d32e590c119bcULL},  // normal(m,s)
          {0x3fc529bdc24e7c47ULL, 0x3fe9d002eda4b669ULL,
           0x4007986f396c8114ULL},  // exponential
          {0x0000000000000003ULL, 0x0000000000000004ULL,
           0x0000000000000004ULL},  // poisson(3.2)
          {0x0000000000000033ULL, 0x000000000000002eULL,
           0x0000000000000026ULL},  // poisson(45)
          {0x0000000000000014ULL, 0x0000000000000021ULL,
           0x0000000000000085ULL},  // bernoulli
      },
  };
  for (std::size_t s = 0; s < std::size(seeds); ++s) {
    for (std::size_t d = 0; d < std::size(draws); ++d) {
      Rng rng(seeds[s]);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(draws[d].second(rng), recorded[s][d][i])
            << draws[d].first << " draw " << i << " at seed " << seeds[s];
      }
    }
  }
}

}  // namespace
}  // namespace fa
