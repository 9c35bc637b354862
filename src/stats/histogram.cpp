#include "src/stats/histogram.h"

#include <cmath>

#include "src/util/error.h"
#include "src/util/strings.h"

namespace fa::stats {

BinSpec::BinSpec(std::vector<double> edges) : edges_(std::move(edges)) {
  require(edges_.size() >= 2, "BinSpec: need at least two edges");
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    require(edges_[i] > edges_[i - 1], "BinSpec: edges must be increasing");
  }
}

BinSpec BinSpec::from_edges(std::vector<double> edges) {
  return BinSpec(std::move(edges));
}

BinSpec BinSpec::linear(double lo, double hi, int count) {
  require(count >= 1, "BinSpec::linear: need at least one bin");
  require(hi > lo, "BinSpec::linear: hi must exceed lo");
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(count) + 1);
  for (int i = 0; i <= count; ++i) {
    edges.push_back(lo + (hi - lo) * static_cast<double>(i) / count);
  }
  return BinSpec(std::move(edges));
}

BinSpec BinSpec::power_of_two(double lo, int count) {
  require(count >= 1, "BinSpec::power_of_two: need at least one bin");
  require(lo > 0.0, "BinSpec::power_of_two: lo must be positive");
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(count) + 1);
  double edge = lo;
  for (int i = 0; i <= count; ++i) {
    edges.push_back(edge);
    edge *= 2.0;
  }
  return BinSpec(std::move(edges));
}

double BinSpec::center(std::size_t bin) const {
  require(bin < bin_count(), "BinSpec::center: bin out of range");
  return 0.5 * (edges_[bin] + edges_[bin + 1]);
}

std::string BinSpec::label(std::size_t bin) const {
  require(bin < bin_count(), "BinSpec::label: bin out of range");
  const double lo = edges_[bin];
  const double hi = edges_[bin + 1];
  const bool integral =
      lo == std::floor(lo) && hi == std::floor(hi);
  if (integral && hi - lo == 1.0) {
    return format_double(lo, 0);
  }
  const int prec = integral ? 0 : 2;
  return '[' + format_double(lo, prec) + ", " + format_double(hi, prec) + ')';
}

Histogram::Histogram(BinSpec spec)
    : spec_(std::move(spec)), counts_(spec_.bin_count(), 0) {}

bool Histogram::add(double x) {
  auto bin = spec_.index_of(x);
  if (!bin) {
    ++out_of_range_;
    return false;
  }
  ++counts_[*bin];
  ++total_;
  return true;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::fraction(std::size_t bin) const {
  require(total_ > 0, "Histogram::fraction: empty histogram");
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

}  // namespace fa::stats
