#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fa::obs {

std::string canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::vector<double> duration_seconds_bounds() {
  return {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0};
}

std::vector<double> size_bounds() {
  return {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
          262144.0, 1048576.0};
}

std::vector<double> quantile_bounds(double lo, double hi,
                                    int steps_per_octave) {
  const double ratio = std::pow(2.0, 1.0 / static_cast<double>(
                                           std::max(1, steps_per_octave)));
  std::vector<double> bounds;
  double v = std::max(1.0, lo);
  double bound = std::ceil(v);
  bounds.push_back(bound);
  while (bound < hi) {
    v *= ratio;
    const double next = std::ceil(v);
    if (next > bound) {
      bound = next;
      bounds.push_back(bound);
    }
  }
  return bounds;
}

std::vector<double> sim_lag_minutes_bounds() {
  // 15 minutes .. ~32 weeks, two bounds per doubling. Covers everything
  // from reorder-buffer slack (hours-days) to detection lag (days-weeks).
  return quantile_bounds(15.0, 32.0 * 7.0 * 24.0 * 60.0, 2);
}

std::vector<double> occupancy_bounds() {
  // Queue/buffer occupancies: one bound per doubling up to 64K entries.
  return quantile_bounds(1.0, 65536.0, 1);
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double min_value,
                       double max_value, double q) {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, nearest-rank with ceil).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate inside bucket b between its lower and upper edges,
    // clamped to the observed extremes (tightens the first/last bucket and
    // makes p100 exactly the max).
    const double lo = std::max(min_value, b == 0 ? min_value : bounds[b - 1]);
    const double hi =
        std::min(max_value, b < bounds.size() ? bounds[b] : max_value);
    if (in_bucket == 0 || hi <= lo) return std::min(hi, max_value);
    const double frac = (static_cast<double>(rank) -
                         static_cast<double>(cumulative)) /
                        static_cast<double>(in_bucket);
    return lo + frac * (hi - lo);
  }
  return max_value;
}

BucketStats::BucketStats(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)), buckets(bounds.size() + 1, 0) {
  std::sort(bounds.begin(), bounds.end());
}

void BucketStats::record(double v) {
  std::size_t b = 0;
  while (b < bounds.size() && v > bounds[b]) ++b;
  if (buckets.empty()) buckets.assign(bounds.size() + 1, 0);
  ++buckets[b];
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

double BucketStats::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double BucketStats::quantile(double q) const {
  return bucket_quantile(bounds, buckets, count, min, max, q);
}

namespace {

// "name{labels}" map key; labels already canonical.
std::string metric_key(std::string_view name, const std::string& labels) {
  std::string key(name);
  key += '{';
  key += labels;
  key += '}';
  return key;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t b = 0; b <= bounds_.size(); ++b) buckets_[b] = 0;
}

void Histogram::fold_extremes(double lo, double hi) noexcept {
  double cur = min_.load(std::memory_order_relaxed);
  while (lo < cur &&
         !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
}

void Histogram::record(double v) noexcept {
  if (!enabled()) return;
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  fold_extremes(v, v);
}

void Histogram::merge(const BucketStats& stats) noexcept {
  if (!enabled() || stats.count == 0) return;
  if (stats.bounds != bounds_ || stats.buckets.size() != bounds_.size() + 1) {
    return;  // mismatched layout: nothing sane to add
  }
  for (std::size_t b = 0; b < stats.buckets.size(); ++b) {
    if (stats.buckets[b] != 0) {
      buckets_[b].fetch_add(stats.buckets[b], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(stats.count, std::memory_order_relaxed);
  sum_.fetch_add(stats.sum, std::memory_order_relaxed);
  fold_extremes(stats.min, stats.max);
}

MetricsRegistry::MetricsRegistry()
    : epoch_(std::chrono::steady_clock::now()) {}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: see the declaration comment.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels,
                                  Stability stability) {
  std::string canonical = canonical_labels(std::move(labels));
  const std::string key = metric_key(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    auto entry = std::make_unique<CounterEntry>();
    entry->name = std::string(name);
    entry->labels = std::move(canonical);
    entry->stability = stability;
    it = counters_.emplace(key, std::move(entry)).first;
  }
  return it->second->counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels,
                              Stability stability) {
  std::string canonical = canonical_labels(std::move(labels));
  const std::string key = metric_key(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    auto entry = std::make_unique<GaugeEntry>();
    entry->name = std::string(name);
    entry->labels = std::move(canonical);
    entry->stability = stability;
    it = gauges_.emplace(key, std::move(entry)).first;
  }
  return it->second->gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      Labels labels, Stability stability) {
  std::string canonical = canonical_labels(std::move(labels));
  const std::string key = metric_key(name, canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    auto entry = std::make_unique<HistogramEntry>(
        std::string(name), std::move(canonical), stability, std::move(bounds));
    it = histograms_.emplace(key, std::move(entry)).first;
  }
  return it->second->histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The maps are keyed by "name{labels}", so iteration order already is
    // the deterministic (name, labels) order the contract promises.
    snap.counters.reserve(counters_.size());
    for (const auto& [key, entry] : counters_) {
      snap.counters.push_back({entry->name, entry->labels, entry->stability,
                               entry->counter.value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [key, entry] : gauges_) {
      snap.gauges.push_back(
          {entry->name, entry->labels, entry->stability, entry->gauge.value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [key, entry] : histograms_) {
      HistogramSample sample;
      sample.name = entry->name;
      sample.labels = entry->labels;
      sample.stability = entry->stability;
      const Histogram& h = entry->histogram;
      sample.bounds = h.bounds_;
      sample.buckets.reserve(h.bounds_.size() + 1);
      for (std::size_t b = 0; b <= h.bounds_.size(); ++b) {
        sample.buckets.push_back(
            h.buckets_[b].load(std::memory_order_relaxed));
      }
      sample.count = h.count_.load(std::memory_order_relaxed);
      sample.sum = h.sum_.load(std::memory_order_relaxed);
      if (sample.count > 0) {
        sample.min = h.min_.load(std::memory_order_relaxed);
        sample.max = h.max_.load(std::memory_order_relaxed);
      }
      snap.histograms.push_back(std::move(sample));
    }
  }

  // Span aggregates, grouped by name (map: sorted output for free).
  std::map<std::string, SpanAggregate> by_name;
  for (const SpanEvent& e : span_events()) {
    SpanAggregate& agg = by_name[e.name];
    const double ms = e.dur_us / 1000.0;
    if (agg.count == 0) {
      agg.name = e.name;
      agg.min_ms = agg.max_ms = ms;
    } else {
      agg.min_ms = std::min(agg.min_ms, ms);
      agg.max_ms = std::max(agg.max_ms, ms);
    }
    ++agg.count;
    agg.total_ms += ms;
  }
  snap.spans.reserve(by_name.size());
  for (auto& [name, agg] : by_name) snap.spans.push_back(std::move(agg));
  return snap;
}

std::vector<SpanEvent> MetricsRegistry::span_events() const {
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(span_mutex_);
    buffers = span_buffers_;
  }
  std::vector<SpanEvent> events;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

void MetricsRegistry::reset() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, entry] : counters_) {
      entry->counter.value_.store(0, std::memory_order_relaxed);
    }
    for (auto& [key, entry] : gauges_) {
      entry->gauge.value_.store(0.0, std::memory_order_relaxed);
    }
    for (auto& [key, entry] : histograms_) {
      Histogram& h = entry->histogram;
      for (std::size_t b = 0; b <= h.bounds_.size(); ++b) {
        h.buckets_[b].store(0, std::memory_order_relaxed);
      }
      h.count_.store(0, std::memory_order_relaxed);
      h.sum_.store(0.0, std::memory_order_relaxed);
      h.min_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
      h.max_.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> lock(span_mutex_);
  for (const auto& buffer : span_buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  seq_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<SpanBuffer> MetricsRegistry::thread_buffer() {
  thread_local std::shared_ptr<SpanBuffer> tls;
  if (!tls) {
    tls = std::make_shared<SpanBuffer>();
    std::lock_guard<std::mutex> lock(span_mutex_);
    tls->tid = next_tid_++;
    span_buffers_.push_back(tls);
  }
  return tls;
}

}  // namespace fa::obs
