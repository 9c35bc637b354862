#include "src/stats/simd.h"

#include <cmath>

// Compile-time dispatch: the CMake option FA_SIMD defines FA_SIMD_ENABLED
// for this translation unit only (and, on x86-64, adds -mavx2 -mfma to this
// file alone, so the rest of the library stays baseline-ISA). The selected
// vector path is baked into the binary; there is no runtime probing.
#if defined(FA_SIMD_ENABLED) && defined(__AVX2__)
#define FA_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(FA_SIMD_ENABLED) && defined(__ARM_NEON)
#define FA_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fa::stats::simd {

// ---- scalar references: strict left-to-right accumulation ----

namespace scalar {

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double sum_sq(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x * x;
  return s;
}

double sum_sq_dev(std::span<const double> xs, double mu) {
  double s = 0.0;
  for (double x : xs) {
    const double d = x - mu;
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense) {
  double s = 0.0;
  for (std::size_t e = 0; e < n; ++e) s += values[e] * dense[indices[e]];
  return s;
}

// Column c takes the row's terms in sparse_dot's order, written the same
// way (`+= a * b`), so the compiler contracts both alike.
void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out) {
  for (std::size_t c = 0; c < stride; ++c) out[c] = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    const double v = values[e];
    const double* term = block + std::size_t{indices[e]} * stride;
    for (std::size_t c = 0; c < stride; ++c) out[c] += v * term[c];
  }
}

double ks_max_deviation(const double* f, std::size_t n) {
  const double dn = static_cast<double>(n);
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lower = static_cast<double>(i) / dn;
    const double upper = static_cast<double>(i + 1) / dn;
    const double lo_dev = f[i] > lower ? f[i] - lower : lower - f[i];
    const double hi_dev = upper > f[i] ? upper - f[i] : f[i] - upper;
    const double dev = lo_dev > hi_dev ? lo_dev : hi_dev;
    if (dev > d) d = dev;
  }
  return d;
}

}  // namespace scalar

#if defined(FA_SIMD_AVX2)

std::string_view dispatch_name() { return "avx2"; }

namespace {

// The reductions run two independent accumulator chains (8 elements per
// iteration): FMA latency is several cycles, so a single chain caps the
// loop at one vector op per latency, not per issue slot. The combine order
// (acc0 + acc1, then the fixed-order hadd) depends only on n, never on the
// schedule, so results stay reproducible run to run.

// Fixed-order horizontal reduce: lane0 + lane1 + lane2 + lane3. The lane
// order never depends on input size, so results are reproducible run to run.
inline double hadd(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

inline double hmax(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  const double a = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
  const double b = lanes[2] > lanes[3] ? lanes[2] : lanes[3];
  return a > b ? a : b;
}

}  // namespace

double sum(std::span<const double> xs) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p + i));
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += p[i];
  return s;
}

double sum_sq(std::span<const double> xs) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(p + i);
    const __m256d v1 = _mm256_loadu_pd(p + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(p + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += p[i] * p[i];
  return s;
}

double sum_sq_dev(std::span<const double> xs, double mu) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  const __m256d m = _mm256_set1_pd(mu);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(p + i), m);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(p + i + 4), m);
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(p + i), m);
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = p[i] - mu;
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = a.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(pa + i + 4),
                           _mm256_loadu_pd(pb + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i),
                           acc0);
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += pa[i] * pb[i];
  return s;
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = a.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(pa + i + 4), _mm256_loadu_pd(pb + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = pa[i] - pb[i];
    s += d * d;
  }
  return s;
}

double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense) {
  // Masked gather with an explicit zero source: same all-lanes load as
  // _mm256_i32gather_pd, but avoids GCC's maybe-uninitialized warning on
  // the undefined-source form.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    const __m128i idx0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(indices + e));
    const __m128i idx1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(indices + e + 4));
    const __m256d g0 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), dense, idx0, all, 8);
    const __m256d g1 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), dense, idx1, all, 8);
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + e), g0, acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(values + e + 4), g1, acc1);
  }
  for (; e + 4 <= n; e += 4) {
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(indices + e));
    const __m256d gathered =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), dense, idx, all, 8);
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + e), gathered, acc0);
  }
  double s = hadd(_mm256_add_pd(acc0, acc1));
  for (; e < n; ++e) s = std::fma(values[e], dense[indices[e]], s);
  return s;
}

void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out) {
  // sparse_dot's accumulation order, four columns per vector: nonzero
  // e < 4 * floor(n / 4) feeds slot e % 8 (sparse_dot's acc0 lanes are
  // slots 0-3, acc1's are 4-7), the slots combine as hadd(acc0 + acc1)
  // does, and the tail follows in order by FMA.
  for (std::size_t c = 0; c < stride; c += 4) {
    const double* columns = block + c;
    const auto term = [&](std::size_t e, __m256d acc) {
      return _mm256_fmadd_pd(
          _mm256_set1_pd(values[e]),
          _mm256_loadu_pd(columns + std::size_t{indices[e]} * stride), acc);
    };
    __m256d s0 = _mm256_setzero_pd(), s1 = s0, s2 = s0, s3 = s0, s4 = s0,
            s5 = s0, s6 = s0, s7 = s0;
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
      s0 = term(e, s0);
      s1 = term(e + 1, s1);
      s2 = term(e + 2, s2);
      s3 = term(e + 3, s3);
      s4 = term(e + 4, s4);
      s5 = term(e + 5, s5);
      s6 = term(e + 6, s6);
      s7 = term(e + 7, s7);
    }
    if (e + 4 <= n) {
      s0 = term(e, s0);
      s1 = term(e + 1, s1);
      s2 = term(e + 2, s2);
      s3 = term(e + 3, s3);
      e += 4;
    }
    __m256d acc = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(s0, s4), _mm256_add_pd(s1, s5)),
        _mm256_add_pd(_mm256_add_pd(s2, s6), _mm256_add_pd(s3, s7)));
    for (; e < n; ++e) acc = term(e, acc);
    _mm256_storeu_pd(out + c, acc);
  }
}

double ks_max_deviation(const double* f, std::size_t n) {
  // Per-element math mirrors the scalar reference exactly (same divisions,
  // same |.| and max), and max-reduction is exact, so this path is
  // bit-identical to scalar::ks_max_deviation for finite inputs.
  const double dn = static_cast<double>(n);
  const __m256d vn = _mm256_set1_pd(dn);
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d step = _mm256_set1_pd(4.0);
  __m256d best = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d fv = _mm256_loadu_pd(f + i);
    const __m256d lower = _mm256_div_pd(idx, vn);
    const __m256d upper = _mm256_div_pd(_mm256_add_pd(idx, ones), vn);
    const __m256d lo_dev = _mm256_and_pd(_mm256_sub_pd(fv, lower), abs_mask);
    const __m256d hi_dev = _mm256_and_pd(_mm256_sub_pd(upper, fv), abs_mask);
    best = _mm256_max_pd(best, _mm256_max_pd(lo_dev, hi_dev));
    idx = _mm256_add_pd(idx, step);
  }
  double d = hmax(best);
  for (; i < n; ++i) {
    const double lower = static_cast<double>(i) / dn;
    const double upper = static_cast<double>(i + 1) / dn;
    const double lo_dev = f[i] > lower ? f[i] - lower : lower - f[i];
    const double hi_dev = upper > f[i] ? upper - f[i] : f[i] - upper;
    const double dev = lo_dev > hi_dev ? lo_dev : hi_dev;
    if (dev > d) d = dev;
  }
  return d;
}

#elif defined(FA_SIMD_NEON)

std::string_view dispatch_name() { return "neon"; }

namespace {

inline double hadd(float64x2_t v) {
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}

inline double hmax(float64x2_t v) {
  const double a = vgetq_lane_f64(v, 0);
  const double b = vgetq_lane_f64(v, 1);
  return a > b ? a : b;
}

}  // namespace

// Two accumulator chains, mirroring the AVX2 path (combine order is fixed:
// acc0 + acc1, then lane0 + lane1).

double sum(std::span<const double> xs) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vld1q_f64(p + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(p + i + 2));
  }
  for (; i + 2 <= n; i += 2) acc0 = vaddq_f64(acc0, vld1q_f64(p + i));
  double s = hadd(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += p[i];
  return s;
}

double sum_sq(std::span<const double> xs) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t v0 = vld1q_f64(p + i);
    const float64x2_t v1 = vld1q_f64(p + i + 2);
    acc0 = vfmaq_f64(acc0, v0, v0);
    acc1 = vfmaq_f64(acc1, v1, v1);
  }
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(p + i);
    acc0 = vfmaq_f64(acc0, v, v);
  }
  double s = hadd(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += p[i] * p[i];
  return s;
}

double sum_sq_dev(std::span<const double> xs, double mu) {
  const double* p = xs.data();
  const std::size_t n = xs.size();
  const float64x2_t m = vdupq_n_f64(mu);
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(p + i), m);
    const float64x2_t d1 = vsubq_f64(vld1q_f64(p + i + 2), m);
    acc0 = vfmaq_f64(acc0, d0, d0);
    acc1 = vfmaq_f64(acc1, d1, d1);
  }
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(p + i), m);
    acc0 = vfmaq_f64(acc0, d, d);
  }
  double s = hadd(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = p[i] - mu;
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = a.size();
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(pa + i), vld1q_f64(pb + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(pa + i + 2), vld1q_f64(pb + i + 2));
  }
  for (; i + 2 <= n; i += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(pa + i), vld1q_f64(pb + i));
  }
  double s = hadd(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += pa[i] * pb[i];
  return s;
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = a.size();
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(pa + i), vld1q_f64(pb + i));
    const float64x2_t d1 =
        vsubq_f64(vld1q_f64(pa + i + 2), vld1q_f64(pb + i + 2));
    acc0 = vfmaq_f64(acc0, d0, d0);
    acc1 = vfmaq_f64(acc1, d1, d1);
  }
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(pa + i), vld1q_f64(pb + i));
    acc0 = vfmaq_f64(acc0, d, d);
  }
  double s = hadd(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = pa[i] - pb[i];
    s += d * d;
  }
  return s;
}

double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense) {
  // NEON has no gather; pack two gathered lanes per step so the multiply
  // and accumulate still run two-wide.
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t e = 0;
  for (; e + 2 <= n; e += 2) {
    const double g[2] = {dense[indices[e]], dense[indices[e + 1]]};
    acc = vfmaq_f64(acc, vld1q_f64(values + e), vld1q_f64(g));
  }
  double s = hadd(acc);
  for (; e < n; ++e) s = std::fma(values[e], dense[indices[e]], s);
  return s;
}

void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out) {
  // sparse_dot's accumulation order, two columns per vector: even nonzeros
  // of the paired body feed one slot, odd ones the other (sparse_dot's
  // lanes 0 and 1), the slots add as hadd does, and the tail follows by FMA.
  for (std::size_t c = 0; c < stride; c += 2) {
    const double* columns = block + c;
    const auto term = [&](std::size_t e, float64x2_t acc) {
      return vfmaq_f64(acc, vdupq_n_f64(values[e]),
                       vld1q_f64(columns + std::size_t{indices[e]} * stride));
    };
    float64x2_t even = vdupq_n_f64(0.0);
    float64x2_t odd = vdupq_n_f64(0.0);
    std::size_t e = 0;
    for (; e + 2 <= n; e += 2) {
      even = term(e, even);
      odd = term(e + 1, odd);
    }
    float64x2_t acc = vaddq_f64(even, odd);
    for (; e < n; ++e) acc = term(e, acc);
    vst1q_f64(out + c, acc);
  }
}

double ks_max_deviation(const double* f, std::size_t n) {
  const double dn = static_cast<double>(n);
  const float64x2_t vn = vdupq_n_f64(dn);
  const float64x2_t ones = vdupq_n_f64(1.0);
  float64x2_t idx = {0.0, 1.0};
  const float64x2_t step = vdupq_n_f64(2.0);
  float64x2_t best = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t fv = vld1q_f64(f + i);
    const float64x2_t lower = vdivq_f64(idx, vn);
    const float64x2_t upper = vdivq_f64(vaddq_f64(idx, ones), vn);
    const float64x2_t lo_dev = vabsq_f64(vsubq_f64(fv, lower));
    const float64x2_t hi_dev = vabsq_f64(vsubq_f64(upper, fv));
    best = vmaxq_f64(best, vmaxq_f64(lo_dev, hi_dev));
    idx = vaddq_f64(idx, step);
  }
  double d = hmax(best);
  for (; i < n; ++i) {
    const double lower = static_cast<double>(i) / dn;
    const double upper = static_cast<double>(i + 1) / dn;
    const double lo_dev = f[i] > lower ? f[i] - lower : lower - f[i];
    const double hi_dev = upper > f[i] ? upper - f[i] : f[i] - upper;
    const double dev = lo_dev > hi_dev ? lo_dev : hi_dev;
    if (dev > d) d = dev;
  }
  return d;
}

#else  // scalar fallback (FA_SIMD=OFF, or no supported vector ISA)

std::string_view dispatch_name() { return "scalar"; }

double sum(std::span<const double> xs) { return scalar::sum(xs); }
double sum_sq(std::span<const double> xs) { return scalar::sum_sq(xs); }
double sum_sq_dev(std::span<const double> xs, double mu) {
  return scalar::sum_sq_dev(xs, mu);
}
double dot(std::span<const double> a, std::span<const double> b) {
  return scalar::dot(a, b);
}
double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  return scalar::squared_distance(a, b);
}
double sparse_dot(const double* values, const std::uint32_t* indices,
                  std::size_t n, const double* dense) {
  return scalar::sparse_dot(values, indices, n, dense);
}
void sparse_dot_block(const double* values, const std::uint32_t* indices,
                      std::size_t n, const double* block, std::size_t stride,
                      double* out) {
  scalar::sparse_dot_block(values, indices, n, block, stride, out);
}
double ks_max_deviation(const double* f, std::size_t n) {
  return scalar::ks_max_deviation(f, n);
}

#endif

}  // namespace fa::stats::simd
