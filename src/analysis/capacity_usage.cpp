#include "src/analysis/capacity_usage.h"

#include <algorithm>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace fa::analysis {
namespace {

// The failures of one call grouped by server with a counting sort over the
// dense server ids: server s's failures are the weeks
// [offsets_[s], offsets_[s + 1]) of weeks_, in no particular order (the
// counts they feed are integers). Tickets on servers the database does not
// hold, or opened outside the observation window, are dropped.
class FailureWeeks {
 public:
  FailureWeeks(const trace::TraceDatabase& db,
               std::span<const trace::Ticket* const> failures)
      : offsets_(db.servers().size() + 1, 0) {
    const std::size_t servers = db.servers().size();
    const ObservationWindow& window = db.window();
    const auto kept = [&](const trace::Ticket& t) {
      return t.server.valid() &&
             static_cast<std::size_t>(t.server.value) < servers &&
             window.contains(t.opened);
    };
    // Count into offsets_[s] and sum to each server's end; placing each
    // week at --offsets_[s] then leaves offsets_[s] at the server's first.
    for (const trace::Ticket* t : failures) {
      if (kept(*t)) ++offsets_[static_cast<std::size_t>(t->server.value)];
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    weeks_.resize(offsets_.back());
    for (const trace::Ticket* t : failures) {
      if (!kept(*t)) continue;
      weeks_[--offsets_[static_cast<std::size_t>(t->server.value)]] =
          window.week_index(t->opened);
    }
  }

  std::span<const int> of(trace::ServerId id) const {
    const auto s = static_cast<std::size_t>(id.value);
    return {weeks_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<int> weeks_;
};

// Integer counts per bin and per (bin, week), the latter flat at
// cell(bin, week).
struct BinCounts {
  BinCounts(std::size_t bins, int weeks)
      : weeks(static_cast<std::size_t>(weeks)),
        population(bins, 0),
        failure_count(bins, 0),
        weekly_population(bins * this->weeks, 0),
        weekly_failures(bins * this->weeks, 0) {}

  std::size_t cell(std::size_t bin, std::size_t week) const {
    return bin * weeks + week;
  }
  void add_failure(std::size_t bin, int week) {
    ++weekly_failures[cell(bin, static_cast<std::size_t>(week))];
    ++failure_count[bin];
  }

  std::size_t weeks;
  std::vector<std::size_t> population;
  std::vector<std::size_t> failure_count;
  std::vector<std::size_t> weekly_population;
  std::vector<std::size_t> weekly_failures;
};

obs::Counter& binned_rows() {
  static obs::Counter& c = obs::counter("fa.analysis.binned_rows");
  return c;
}

}  // namespace

double BinnedRates::max_min_rate_factor() const {
  double lo = 0.0, hi = 0.0;
  for (double r : overall_rate) {
    if (r <= 0.0) continue;
    if (lo == 0.0 || r < lo) lo = r;
    if (r > hi) hi = r;
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

BinnedRates capacity_binned_rates(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures, const Scope& scope,
    const CapacityAttribute& attribute, stats::BinSpec spec) {
  obs::Span span("analysis.capacity_binned_rates");
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();
  const FailureWeeks failure_weeks(db, failures);

  // Each in-scope server with the attribute lands in one bin, its
  // failures with it.
  BinCounts counts(bins, weeks);
  std::uint64_t rows = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    ++rows;
    auto value = attribute(s);
    if (!value) continue;
    auto bin = spec.index_of(*value);
    if (!bin) continue;
    ++counts.population[*bin];
    for (int w : failure_weeks.of(s.id)) counts.add_failure(*bin, w);
  }
  binned_rows().add(rows);

  BinnedRates result{std::move(spec), std::move(counts.population),
                     std::move(counts.failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  std::vector<double> series(static_cast<std::size_t>(weeks));
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    const auto population = static_cast<double>(result.population[b]);
    for (std::size_t w = 0; w < series.size(); ++w) {
      series[w] =
          static_cast<double>(counts.weekly_failures[counts.cell(b, w)]) /
          population;
    }
    result.weekly_summary[b] = stats::summarize(series);
    result.overall_rate[b] =
        static_cast<double>(result.failure_count[b]) / (population * weeks);
  }
  return result;
}

BinnedRates usage_binned_rates(const trace::TraceDatabase& db,
                               std::span<const trace::Ticket* const> failures,
                               const Scope& scope,
                               const UsageAttribute& attribute,
                               stats::BinSpec spec) {
  obs::Span span("analysis.usage_binned_rates");
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();
  const FailureWeeks failure_weeks(db, failures);

  // Each in-scope server-week lands in the bin of its usage row; the
  // server's failures then land in the bin of their week. `slots` holds
  // one server's week -> bin (-1 for none) and is reused from server to
  // server.
  BinCounts counts(bins, weeks);
  std::vector<int> slots(static_cast<std::size_t>(weeks));
  std::uint64_t rows = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    std::fill(slots.begin(), slots.end(), -1);
    const auto usage = db.weekly_usage_for(s.id);
    rows += usage.size();
    for (const trace::WeeklyUsage& u : usage) {
      if (u.week < 0 || u.week >= weeks) continue;
      // Not const: GCC 12 then spills the optional as two 8-byte stores
      // and reloads it as one 16-byte load that store forwarding cannot
      // serve, which triples the cost of this loop.
      auto value = attribute(u);
      if (!value) continue;
      auto bin = spec.index_of(*value);
      if (!bin) continue;
      const auto w = static_cast<std::size_t>(u.week);
      slots[w] = static_cast<int>(*bin);
      ++counts.weekly_population[counts.cell(*bin, w)];
      ++counts.population[*bin];
    }
    for (int w : failure_weeks.of(s.id)) {
      const int bin = slots[static_cast<std::size_t>(w)];
      if (bin >= 0) counts.add_failure(static_cast<std::size_t>(bin), w);
    }
  }
  binned_rows().add(rows);

  BinnedRates result{std::move(spec), std::move(counts.population),
                     std::move(counts.failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  std::vector<double> rates;
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    // Weekly rate series over weeks with population in this bin, of which
    // there is at least one: population[b] sums them.
    rates.clear();
    for (std::size_t w = 0; w < counts.weeks; ++w) {
      const std::size_t cell = counts.cell(b, w);
      if (counts.weekly_population[cell] == 0) continue;
      rates.push_back(static_cast<double>(counts.weekly_failures[cell]) /
                      static_cast<double>(counts.weekly_population[cell]));
    }
    result.weekly_summary[b] = stats::summarize(rates);
    result.overall_rate[b] = static_cast<double>(result.failure_count[b]) /
                             static_cast<double>(result.population[b]);
  }
  return result;
}

}  // namespace fa::analysis
