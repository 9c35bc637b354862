#include "src/stats/fitting.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/stats/ks.h"
#include "src/stats/simd.h"
#include "src/stats/special.h"
#include "src/util/error.h"

namespace fa::stats {
namespace {

// Runs once per sample, so the message is built only when a check fails.
void check_positive(std::span<const double> xs, const char* who) {
  if (xs.size() < 2) {
    throw Error(std::string(who) + ": need at least two samples");
  }
  for (double x : xs) {
    if (!(x > 0.0)) {
      throw Error(std::string(who) + ": samples must be positive");
    }
  }
}

double sample_mean(std::span<const double> xs) {
  return simd::sum(xs) / static_cast<double>(xs.size());
}

std::vector<double> log_buffer(std::span<const double> xs) {
  std::vector<double> lx(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) lx[i] = std::log(xs[i]);
  return lx;
}

double mean_log(std::span<const double> xs) {
  const std::vector<double> lx = log_buffer(xs);
  return simd::sum(lx) / static_cast<double>(xs.size());
}

}  // namespace

Exponential fit_exponential(std::span<const double> xs) {
  check_positive(xs, "fit_exponential");
  return Exponential(1.0 / sample_mean(xs));
}

LogNormal fit_lognormal(std::span<const double> xs) {
  check_positive(xs, "fit_lognormal");
  const std::vector<double> lx = log_buffer(xs);
  const double mu = simd::sum(lx) / static_cast<double>(xs.size());
  const double ss = simd::sum_sq_dev(lx, mu);
  const double sigma = std::sqrt(ss / static_cast<double>(xs.size()));
  require(sigma > 0.0, "fit_lognormal: degenerate sample (all equal)");
  return LogNormal(mu, sigma);
}

GammaDist fit_gamma(std::span<const double> xs) {
  check_positive(xs, "fit_gamma");
  const double m = sample_mean(xs);
  const double s = std::log(m) - mean_log(xs);
  require(s > 0.0, "fit_gamma: degenerate sample (all equal)");
  // Minka's closed-form initializer, then Newton on
  // f(k) = ln k - digamma(k) - s.
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) /
             (12.0 * s);
  if (!(k > 0.0) || !std::isfinite(k)) k = 0.5 / s;
  for (int i = 0; i < 100; ++i) {
    const double f = std::log(k) - digamma(k) - s;
    const double fp = 1.0 / k - trigamma(k);
    double next = k - f / fp;
    if (!(next > 0.0) || !std::isfinite(next)) next = k / 2.0;
    if (std::fabs(next - k) <= 1e-12 * k) {
      k = next;
      break;
    }
    k = next;
  }
  return GammaDist(k, m / k);
}

Weibull fit_weibull(std::span<const double> xs) {
  check_positive(xs, "fit_weibull");
  // Hoist log(x) out of the root iteration: each g(k) evaluation then costs
  // one exp per element (x^k = exp(k ln x)) plus two vector reductions,
  // instead of a pow and a log per element.
  const std::vector<double> lx = log_buffer(xs);
  const double mlog = simd::sum(lx) / static_cast<double>(xs.size());
  std::vector<double> xk(xs.size());
  // Profile-likelihood equation for the shape:
  //   g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0,
  // g is increasing in k; bracket then bisect with Newton-like midpoints.
  const auto g = [&](double k) {
    for (std::size_t i = 0; i < lx.size(); ++i) xk[i] = std::exp(k * lx[i]);
    const double num = simd::dot(xk, lx);
    const double den = simd::sum(xk);
    return num / den - 1.0 / k - mlog;
  };
  double lo = 1e-3, hi = 1.0;
  while (g(hi) < 0.0 && hi < 1e6) hi *= 2.0;
  while (g(lo) > 0.0 && lo > 1e-9) lo /= 2.0;
  require(g(lo) <= 0.0 && g(hi) >= 0.0,
          "fit_weibull: failed to bracket the shape root");
  double k = 0.5 * (lo + hi);
  for (int i = 0; i < 200; ++i) {
    k = 0.5 * (lo + hi);
    const double v = g(k);
    if (std::fabs(v) < 1e-13 || (hi - lo) < 1e-12 * k) break;
    (v < 0.0 ? lo : hi) = k;
  }
  for (std::size_t i = 0; i < lx.size(); ++i) xk[i] = std::exp(k * lx[i]);
  const double scale =
      std::pow(simd::sum(xk) / static_cast<double>(xs.size()), 1.0 / k);
  return Weibull(k, scale);
}

std::vector<FitResult> fit_candidates(std::span<const double> xs) {
  check_positive(xs, "fit_candidates");
  std::vector<FitResult> results;
  const auto add = [&](DistributionPtr dist, int n_params) {
    FitResult r;
    r.log_likelihood = dist->log_likelihood(xs);
    r.aic = 2.0 * n_params - 2.0 * r.log_likelihood;
    r.ks_statistic = ks_statistic(xs, *dist);
    r.dist = std::move(dist);
    results.push_back(std::move(r));
  };
  add(std::make_unique<Exponential>(fit_exponential(xs)), 1);
  // Degenerate samples (all values equal) fit exponential only.
  try {
    add(std::make_unique<Weibull>(fit_weibull(xs)), 2);
    add(std::make_unique<GammaDist>(fit_gamma(xs)), 2);
    add(std::make_unique<LogNormal>(fit_lognormal(xs)), 2);
  } catch (const Error&) {
    // Keep whatever families fitted successfully.
  }
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.log_likelihood > b.log_likelihood;
            });
  return results;
}

FitResult fit_best(std::span<const double> xs) {
  auto results = fit_candidates(xs);
  require(!results.empty(), "fit_best: no family fitted");
  return std::move(results.front());
}

double amdahl_serial_fraction(std::span<const int> threads,
                              std::span<const double> times_ms) {
  require(threads.size() == times_ms.size(),
          "amdahl_serial_fraction: threads/times size mismatch");
  require(threads.size() >= 2,
          "amdahl_serial_fraction: need at least two measurements");
  double t1 = 0.0;
  bool have_t1 = false;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    require(threads[i] >= 1 && times_ms[i] > 0.0,
            "amdahl_serial_fraction: threads must be >= 1 and times positive");
    if (threads[i] == 1) {
      t1 = times_ms[i];
      have_t1 = true;
    }
  }
  require(have_t1, "amdahl_serial_fraction: need a 1-thread measurement");
  // T(p) = T1/p + s * T1 * (1 - 1/p) is linear in s; solve the normal
  // equation over the p > 1 measurements.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const double inv_p = 1.0 / static_cast<double>(threads[i]);
    const double a = t1 * (1.0 - inv_p);
    num += a * (times_ms[i] - t1 * inv_p);
    den += a * a;
  }
  if (den <= 0.0) return 1.0;  // only p == 1 measurements: no information
  return std::clamp(num / den, 0.0, 1.0);
}

}  // namespace fa::stats
