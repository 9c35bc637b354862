// Vectorized inner kernels for the stats hot paths.
//
// Every kernel exists twice: the dispatched entry point (`simd::sum`, ...)
// and a scalar reference (`simd::scalar::sum`, ...). The dispatched
// implementation is selected at COMPILE time inside simd.cpp — AVX2+FMA on
// x86-64, NEON on aarch64, the scalar reference otherwise — governed by the
// `FA_SIMD` CMake option (OFF compiles every entry point to its scalar
// reference, which is also the portable fallback for hosts without the
// vector ISA). `dispatch_name()` reports which path a binary carries.
//
// Accuracy contract (pinned by tests/test_simd.cpp):
//  - order-insensitive kernels (max-style scans) are bit-identical to the
//    scalar reference;
//  - reassociating reductions (sums, dots, squared distances) agree with
//    the scalar reference to within 1e-12 relative error on well-scaled
//    inputs, and propagate NaN/inf the same way (every input element
//    feeds the accumulator in both paths);
//  - sparse_dot_block is bit-identical to sparse_dot of the same path,
//    column by column: k-means computes some distances with one and some
//    with the other, and its Hamerly bounds compare them;
//  - none of the kernels touch shared state, so results are independent
//    of the thread count at every call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fa::stats::simd {

// "avx2", "neon" or "scalar" — what the dispatched entry points run.
std::string_view dispatch_name();

// Sum of xs.
double sum(std::span<const double> xs);
// Sum of xs[i]^2.
double sum_sq(std::span<const double> xs);
// Sum of (xs[i] - mu)^2.
double sum_sq_dev(std::span<const double> xs, double mu);
// Dot product (a and b must have equal length).
double dot(std::span<const double> a, std::span<const double> b);
// Sum of (a[i] - b[i])^2 (equal length).
double squared_distance(std::span<const double> a, std::span<const double> b);
// Sparse row . dense vector: sum of values[e] * dense[indices[e]].
// `indices` must be in range of `dense`; AVX2 uses hardware gathers.
double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense);
// Sparse row . every column of a term-major block: for each c < stride,
// out[c] = sum of values[e] * block[indices[e] * stride + c]. `stride` is a
// multiple of 4 and `block` holds (max index + 1) x stride values. Each
// column accumulates in the order its path's sparse_dot uses, so out[c] is
// bit-identical to sparse_dot over column c (NaN payloads aside).
void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out);
// Kolmogorov-Smirnov deviation scan over sorted-model CDF values f[i]:
// max over i of max(|f[i] - i/n|, |(i+1)/n - f[i]|). Exact (max only), so
// bit-identical across paths.
double ks_max_deviation(const double* f, std::size_t n);

// Scalar reference implementations: strict left-to-right accumulation,
// identical to what a FA_SIMD=OFF build dispatches to. Kept unconditionally
// so equivalence tests and the bench's `simd` block can compare paths
// inside one binary.
namespace scalar {
double sum(std::span<const double> xs);
double sum_sq(std::span<const double> xs);
double sum_sq_dev(std::span<const double> xs, double mu);
double dot(std::span<const double> a, std::span<const double> b);
double squared_distance(std::span<const double> a, std::span<const double> b);
double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense);
void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out);
double ks_max_deviation(const double* f, std::size_t n);
}  // namespace scalar

}  // namespace fa::stats::simd
