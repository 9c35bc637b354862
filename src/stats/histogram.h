// Binning utilities. The paper's Figs. 7-10 bucket machines by a resource
// attribute (CPU count, memory GB, utilization %, ...) and report the failure
// rate per bucket; BinSpec models those bucket schemes (linear, power-of-two,
// or explicit edges) and Histogram accumulates counts/values per bucket.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fa::stats {

// A partition of the real line into labeled, half-open bins [lo, hi).
class BinSpec {
 public:
  // Bins with explicit edges: edges.size() >= 2, strictly increasing;
  // bin i is [edges[i], edges[i+1]).
  static BinSpec from_edges(std::vector<double> edges);
  // count equal-width bins covering [lo, hi).
  static BinSpec linear(double lo, double hi, int count);
  // Power-of-two bins [lo, 2*lo), [2*lo, 4*lo), ... with count bins.
  static BinSpec power_of_two(double lo, int count);

  // Index of the bin containing x, or nullopt when x is out of range or
  // NaN. Inline and branch-free in x, as the binned analyses call it once
  // per usage row: the search runs log2(bin_count()) steps whatever x is,
  // each a select, so random values cost no mispredictions.
  std::optional<std::size_t> index_of(double x) const {
    // Written so that NaN, which fails every comparison, is out of range.
    if (!(x >= edges_.front() && x < edges_.back())) return std::nullopt;
    // The last lower edge <= x lies in [first, first + n); edges_.front()
    // <= x holds from the range test.
    const double* first = edges_.data();
    std::size_t n = bin_count();
    while (n > 1) {
      const std::size_t half = n / 2;
      first = first[half] <= x ? first + half : first;
      n -= half;
    }
    return static_cast<std::size_t>(first - edges_.data());
  }
  std::size_t bin_count() const { return edges_.size() - 1; }
  double lower_edge(std::size_t bin) const { return edges_[bin]; }
  double upper_edge(std::size_t bin) const { return edges_[bin + 1]; }
  double center(std::size_t bin) const;
  // "[4, 8)" style label, or "8" when the bin holds a single integer.
  std::string label(std::size_t bin) const;

 private:
  explicit BinSpec(std::vector<double> edges);
  std::vector<double> edges_;
};

// Counting histogram over a BinSpec.
class Histogram {
 public:
  explicit Histogram(BinSpec spec);

  // Returns true if x landed in a bin, false if out of range.
  bool add(double x);
  void add_all(std::span<const double> xs);

  const BinSpec& spec() const { return spec_; }
  std::uint64_t count(std::size_t bin) const { return counts_[bin]; }
  std::uint64_t total() const { return total_; }
  std::uint64_t out_of_range() const { return out_of_range_; }
  // count(bin) / total(); requires total() > 0.
  double fraction(std::size_t bin) const;

 private:
  BinSpec spec_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t out_of_range_ = 0;
};

}  // namespace fa::stats
