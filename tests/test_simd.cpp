// Equivalence tests pinning the simd.h accuracy contract: every dispatched
// kernel against its scalar reference on random and adversarial inputs
// (remainder lanes, empty inputs, NaN/inf tails), bit-identical for the
// order-preserving max scan and within 1e-12 relative for the reassociating
// reductions — and independent of the worker-thread count — plus the
// k-means block kernel bit for bit against sparse_dot. Also covers the
// batch log_likelihood overrides of the distribution families and the
// Amdahl serial-fraction fit.
#include "src/stats/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/exponential.h"
#include "src/stats/fitting.h"
#include "src/stats/gamma_dist.h"
#include "src/stats/lognormal.h"
#include "src/stats/pareto.h"
#include "src/stats/weibull.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fa::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Sizes straddling every vector-width boundary: empty, sub-width, the
// 4-lane and 8-lane (two-accumulator) AVX2 strides and their remainders.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,  7, 8,
                                         9,  11, 15, 16, 17, 31, 32, 33,
                                         63, 64, 65, 1000, 1001};

// NaN-aware match at 1e-12 relative: the reassociating contract.
void expect_close(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got));
    return;
  }
  if (std::isinf(want)) {
    EXPECT_EQ(got, want);
    return;
  }
  EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::abs(want)));
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed,
                                  double lo = -10.0, double hi = 10.0) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

// Compares every kernel's dispatched result against its scalar reference
// on one (a, b) input pair.
void check_all_kernels(const std::vector<double>& a,
                       const std::vector<double>& b) {
  namespace sd = simd;
  expect_close(sd::sum(a), sd::scalar::sum(a));
  expect_close(sd::sum_sq(a), sd::scalar::sum_sq(a));
  expect_close(sd::sum_sq_dev(a, 0.37), sd::scalar::sum_sq_dev(a, 0.37));
  expect_close(sd::dot(a, b), sd::scalar::dot(a, b));
  expect_close(sd::squared_distance(a, b),
               sd::scalar::squared_distance(a, b));
}

TEST(Simd, DispatchNameIsKnown) {
  const auto name = simd::dispatch_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

TEST(Simd, ReductionsMatchScalarAcrossLaneBoundaries) {
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    check_all_kernels(random_values(n, 11 + n), random_values(n, 23 + n));
  }
}

TEST(Simd, ReductionsMatchScalarOnIllConditionedInput) {
  // Large cancellation: values of wildly different magnitude. The contract
  // only promises agreement with the scalar reference, not with the exact
  // sum, and 1e-12 relative on max(1, |ref|) holds because both paths add
  // the same values in size-dependent but data-independent orders.
  for (std::size_t n : {16u, 33u, 1000u}) {
    SCOPED_TRACE(n);
    Rng rng(n);
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double mag = std::pow(10.0, rng.uniform(-6.0, 6.0));
      a[i] = (rng.uniform() < 0.5 ? -mag : mag);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    check_all_kernels(a, b);
  }
}

TEST(Simd, EmptyInputsReduceToZero) {
  const std::vector<double> none;
  EXPECT_EQ(simd::sum(none), 0.0);
  EXPECT_EQ(simd::sum_sq(none), 0.0);
  EXPECT_EQ(simd::sum_sq_dev(none, 1.0), 0.0);
  EXPECT_EQ(simd::dot(none, none), 0.0);
  EXPECT_EQ(simd::squared_distance(none, none), 0.0);
  EXPECT_EQ(simd::sparse_dot(nullptr, nullptr, 0, nullptr), 0.0);
  EXPECT_EQ(simd::ks_max_deviation(nullptr, 0), 0.0);
}

TEST(Simd, NaNAndInfPropagateLikeScalar) {
  // A non-finite value anywhere — vector lanes, the two-accumulator stride,
  // or the scalar remainder tail — must reach the accumulator in both
  // paths. The scalar reference defines the expected result.
  for (std::size_t n : {5u, 8u, 9u, 17u, 33u}) {
    for (double poison : {kNaN, kInf, -kInf}) {
      for (std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " at=" << at << " poison=" << poison);
        auto a = random_values(n, 7 * n + at);
        auto b = random_values(n, 13 * n + at);
        a[at] = poison;
        check_all_kernels(a, b);
      }
    }
  }
}

TEST(Simd, SparseDotMatchesScalar) {
  Rng rng(99);
  const std::size_t dim = 257;
  const auto dense = random_values(dim, 5);
  for (std::size_t nnz : kSizes) {
    if (nnz > dim) continue;
    SCOPED_TRACE(nnz);
    std::vector<double> values = random_values(nnz, 31 + nnz);
    std::vector<std::uint32_t> indices(nnz);
    for (std::size_t e = 0; e < nnz; ++e) {
      indices[e] = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1));
    }
    expect_close(simd::sparse_dot(values.data(), indices.data(), nnz,
                                  dense.data()),
                 simd::scalar::sparse_dot(values.data(), indices.data(), nnz,
                                          dense.data()));
  }
}

// Bit equality, except that any NaN matches any NaN: IEEE 754 leaves open
// which NaN operand's payload an operation returns, and compilers swap the
// operands of commutative adds freely.
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// k-means mixes the two kernels: a full scan takes every centroid's dot
// from sparse_dot_block, the Hamerly recompute one dot from sparse_dot, and
// the bounds compare the two. So the block kernel must reproduce
// sparse_dot's accumulation order exactly, in each path: rows of 0-19
// nonzeros cover every lane remainder of the 8-wide body, the column
// counts every padding of the 4-wide blocks, and the magnitudes span 16
// decades so that any other order rounds differently.
TEST(Simd, SparseDotBlockMatchesSparseDotBitForBit) {
  constexpr std::size_t kDim = 41;
  constexpr auto kLastTerm = static_cast<std::int64_t>(kDim) - 1;
  Rng rng(2024);
  const auto wide = [&rng] {
    const double mag = std::pow(10.0, rng.uniform(-8.0, 8.0));
    return rng.uniform() < 0.5 ? -mag : mag;
  };
  for (const std::size_t k : {1u, 3u, 4u, 5u, 24u, 32u}) {
    const std::size_t stride = (k + 3) / 4 * 4;
    std::vector<std::vector<double>> centroids(k, std::vector<double>(kDim));
    for (auto& centroid : centroids) {
      for (double& x : centroid) x = rng.uniform() < 0.5 ? wide() : 0.0;
    }
    centroids[0][3] = kNaN;
    centroids[k - 1][5] = kInf;
    centroids[k / 2][7] = -kInf;
    centroids[k - 1][9] = -0.0;
    std::vector<double> block(kDim * stride, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d = 0; d < kDim; ++d) {
        block[d * stride + c] = centroids[c][d];
      }
    }
    for (std::size_t nnz = 0; nnz < 20; ++nnz) {
      for (int variant = 0; variant < 4; ++variant) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " nnz=" << nnz
                                        << " variant=" << variant);
        std::vector<double> values(nnz);
        std::vector<std::uint32_t> indices(nnz);
        for (std::size_t e = 0; e < nnz; ++e) {
          values[e] = variant == 0 ? rng.uniform(0.0, 1.0) : wide();
          // Mostly finite terms, so most sums stay comparable; variants 2
          // and 3 may land on the non-finite centroid coordinates.
          indices[e] = static_cast<std::uint32_t>(
              rng.uniform_int(variant >= 2 ? 0 : 10, kLastTerm));
        }
        if (variant == 3 && nnz > 0) {
          values[nnz / 3] = kNaN;
          values[nnz - 1] = nnz % 2 == 0 ? kInf : -kInf;
        }
        std::vector<double> got(stride), scalar_got(stride);
        simd::sparse_dot_block(values.data(), indices.data(), nnz,
                               block.data(), stride, got.data());
        simd::scalar::sparse_dot_block(values.data(), indices.data(), nnz,
                                       block.data(), stride,
                                       scalar_got.data());
        for (std::size_t c = 0; c < k; ++c) {
          const double want = simd::sparse_dot(values.data(), indices.data(),
                                               nnz, centroids[c].data());
          const double scalar_want = simd::scalar::sparse_dot(
              values.data(), indices.data(), nnz, centroids[c].data());
          EXPECT_TRUE(same_bits(got[c], want))
              << "column " << c << ": " << got[c] << " vs " << want;
          EXPECT_TRUE(same_bits(scalar_got[c], scalar_want))
              << "column " << c << ": " << scalar_got[c] << " vs "
              << scalar_want;
        }
      }
    }
  }
}

TEST(Simd, KsMaxDeviationIsBitIdenticalToScalar) {
  // Max scans do not reassociate sums, so the contract here is exact
  // equality, not a tolerance.
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    SCOPED_TRACE(n);
    Rng rng(41 + n);
    std::vector<double> f(n);
    for (double& x : f) x = rng.uniform(0.0, 1.0);
    std::sort(f.begin(), f.end());
    const double vec = simd::ks_max_deviation(f.data(), n);
    const double ref = simd::scalar::ks_max_deviation(f.data(), n);
    EXPECT_EQ(vec, ref);
  }
}

TEST(Simd, ResultsAreIndependentOfThreadCount) {
  // The kernels are pure functions of their inputs; pin that a 1-thread and
  // an 8-thread process state produce bit-identical values.
  const auto a = random_values(1001, 3);
  const auto b = random_values(1001, 4);
  const std::size_t before = ThreadPool::default_thread_count();
  ThreadPool::set_default_thread_count(1);
  const double sum1 = simd::sum(a);
  const double dot1 = simd::dot(a, b);
  const double sq1 = simd::squared_distance(a, b);
  ThreadPool::set_default_thread_count(8);
  EXPECT_EQ(simd::sum(a), sum1);
  EXPECT_EQ(simd::dot(a, b), dot1);
  EXPECT_EQ(simd::squared_distance(a, b), sq1);
  ThreadPool::set_default_thread_count(before);
}

// ---- batch log_likelihood overrides ----

// Element-wise reference: what the base-class implementation computes.
double elementwise_loglik(const Distribution& dist,
                          std::span<const double> xs) {
  double total = 0.0;
  for (double x : xs) total += dist.log_pdf(x);
  return total;
}

void check_loglik(const Distribution& dist, std::span<const double> xs,
                  double rel_tol) {
  const double batch = dist.log_likelihood(xs);
  const double ref = elementwise_loglik(dist, xs);
  if (std::isnan(ref)) {
    EXPECT_TRUE(std::isnan(batch));
  } else if (std::isinf(ref)) {
    EXPECT_EQ(batch, ref);
  } else {
    EXPECT_NEAR(batch, ref, rel_tol * std::max(1.0, std::abs(ref)));
  }
}

TEST(SimdLogLikelihood, BatchMatchesElementwiseInDomain) {
  Rng rng(8);
  for (std::size_t n : {1u, 7u, 64u, 1001u}) {
    SCOPED_TRACE(n);
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.uniform(1.5, 50.0);
    // The sufficient-statistic forms reassociate sums and trade pow for
    // exp/log, so the tolerance is looser than the kernel contract but far
    // tighter than any fit decision.
    check_loglik(Exponential(0.03), xs, 1e-9);
    check_loglik(Weibull(0.8, 12.0), xs, 1e-9);
    check_loglik(GammaDist(0.6, 40.0), xs, 1e-9);
    check_loglik(LogNormal(1.2, 0.9), xs, 1e-9);
    check_loglik(Pareto(1.0, 1.7), xs, 1e-9);
  }
}

TEST(SimdLogLikelihood, OutOfDomainFallsBackToElementwise) {
  // A zero (boundary), a negative value and non-finite values must produce
  // exactly what the element-wise path produces (-inf / NaN semantics),
  // because the batch path bails out to it.
  const std::vector<std::vector<double>> adversarial = {
      {1.0, 0.0, 2.0},          // boundary: open-domain families reject 0
      {1.0, -3.0, 2.0},         // negative
      {1.0, kNaN, 2.0},         // NaN anywhere
      {1.0, kInf, 2.0},         // +inf tail
      {},                       // empty sample
  };
  for (const auto& xs : adversarial) {
    SCOPED_TRACE(testing::Message() << "size=" << xs.size());
    check_loglik(Exponential(0.03), xs, 0.0);
    check_loglik(Weibull(0.8, 12.0), xs, 0.0);
    check_loglik(GammaDist(0.6, 40.0), xs, 0.0);
    check_loglik(LogNormal(1.2, 0.9), xs, 0.0);
    check_loglik(Pareto(1.0, 1.7), xs, 0.0);
  }
}

// ---- Amdahl serial-fraction fit ----

TEST(AmdahlFit, RecoversKnownFractions) {
  const std::vector<int> threads = {1, 2, 4, 8};
  for (double s : {0.0, 0.25, 0.6, 1.0}) {
    SCOPED_TRACE(s);
    std::vector<double> times;
    for (int p : threads) {
      const double t1 = 800.0;
      times.push_back(t1 * (s + (1.0 - s) / p));
    }
    EXPECT_NEAR(amdahl_serial_fraction(threads, times), s, 1e-9);
  }
}

TEST(AmdahlFit, ClampsToUnitInterval) {
  const std::vector<int> threads = {1, 2, 4, 8};
  // Slowdowns beyond serial (oversubscription) clamp to 1 ...
  const std::vector<double> slower = {100.0, 130.0, 150.0, 190.0};
  EXPECT_EQ(amdahl_serial_fraction(threads, slower), 1.0);
  // ... and superlinear scaling clamps to 0.
  const std::vector<double> superlinear = {100.0, 40.0, 15.0, 6.0};
  EXPECT_EQ(amdahl_serial_fraction(threads, superlinear), 0.0);
}

TEST(AmdahlFit, ValidatesInput) {
  const auto fit = [](std::vector<int> threads, std::vector<double> times) {
    return amdahl_serial_fraction(threads, times);
  };
  EXPECT_THROW(fit({1}, {100.0}), Error);            // < 2 points
  EXPECT_THROW(fit({1, 2}, {100.0}), Error);         // length mismatch
  EXPECT_THROW(fit({2, 4}, {50.0, 25.0}), Error);    // no 1-thread run
  EXPECT_THROW(fit({1, 0}, {100.0, 50.0}), Error);   // thread count < 1
  EXPECT_THROW(fit({1, 2}, {100.0, -1.0}), Error);   // non-positive time
}

}  // namespace
}  // namespace fa::stats
