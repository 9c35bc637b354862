// Process-wide metrics registry: counters, gauges and histograms with
// labeled families, plus the thread-local span buffers behind obs::Span
// (span.h). The registry is the single source of truth every exporter
// (export.h) reads.
//
// Determinism contract (docs/OBSERVABILITY.md): every metric carries a
// Stability tag. kDeterministic metrics hold values that are bit-identical
// for a given workload at any --threads setting (integer event counts,
// histogram bucket counts over deterministic values); kTiming metrics hold
// wall-clock or schedule-dependent data (span durations, per-worker item
// counts) and are excluded from the deterministic snapshot section.
// Snapshots are aggregated deterministically: entries sort by (name,
// canonical label string) regardless of registration or thread order.
//
// Cost model: counter/gauge/histogram handles are stable references —
// call sites resolve them once (function-local static or per-thread) and
// the hot-path op is one relaxed atomic on top of one relaxed load of the
// runtime toggle. With the toggle off (set_enabled(false), the --no-obs
// flag) every op is a no-op.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fa::obs {

// Label set of one metric family member, e.g. {{"kind", "database"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class Stability : std::uint8_t {
  kDeterministic = 0,  // thread-count-invariant; in the deterministic export
  kTiming = 1,         // wall-clock / schedule-dependent; timing export only
};

struct CounterSample {
  std::string name;
  std::string labels;  // canonical "k=v,k2=v2" (sorted by key), "" if none
  Stability stability = Stability::kDeterministic;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string labels;
  Stability stability = Stability::kDeterministic;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string labels;
  Stability stability = Stability::kDeterministic;
  std::vector<double> bounds;          // ascending upper bounds (finite)
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;  // order-dependent accumulation: timing data by nature
  double min = 0.0;  // order-independent extremes: deterministic, 0 if empty
  double max = 0.0;
};

// One closed span, times relative to the registry epoch.
struct SpanEvent {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;           // nesting depth within its thread, 0 = top level
  std::uint32_t tid = 0;   // registry-assigned thread index
  std::uint64_t seq = 0;   // global close order (monotone, schedule-dependent)
};

// Per-name span aggregate (always timing-class).
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;      // sorted by (name, labels)
  std::vector<GaugeSample> gauges;          // sorted by (name, labels)
  std::vector<HistogramSample> histograms;  // sorted by (name, labels)
  std::vector<SpanAggregate> spans;         // sorted by name
};

// Canonical "k=v,k2=v2" form, sorted by key. Exposed for exporters/tests.
std::string canonical_labels(Labels labels);

// Default histogram bounds for second-valued durations and for size-like
// counts (powers of four). Declared here so call sites and tests agree.
std::vector<double> duration_seconds_bounds();
std::vector<double> size_bounds();

// Log-spaced ("HDR-style") integer bucket bounds: a geometric grid from lo
// to just past hi with steps_per_octave bounds per doubling, rounded to
// integers and deduplicated. Relative quantile error is bounded by the
// step ratio 2^(1/steps_per_octave).
std::vector<double> quantile_bounds(double lo, double hi,
                                    int steps_per_octave);

// Shared bound sets for sim-time lag metrics (minutes: 15 min .. ~32 weeks)
// and for queue-occupancy counts. One definition so recorder, exporter and
// schema tests agree on the bucket layout.
std::vector<double> sim_lag_minutes_bounds();
std::vector<double> occupancy_bounds();

// Quantile estimate from bucketed counts: walks the cumulative bucket
// counts to the bucket holding rank q*count and interpolates linearly
// inside it, clamped to the observed [min, max]. Pure arithmetic over
// order-independent inputs, so quantiles of deterministic histograms are
// themselves deterministic. Returns 0 for an empty histogram.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double min_value,
                       double max_value, double q);

// Plain (non-atomic, non-registered) log-bucketed histogram for
// single-threaded pipeline stages that need quantiles locally — e.g. the
// detector's lag tracking, which must keep working with recording turned
// off. Mirror into a registered obs::Histogram via merge() for the exported
// snapshot.
struct BucketStats {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;

  BucketStats() = default;
  explicit BucketStats(std::vector<double> bucket_bounds);

  void record(double v);
  double mean() const;
  double quantile(double q) const;
};

// Runtime toggle: relaxed load on every op, so "off" costs one predictable
// branch. Default on; bench/CLI surfaces expose --no-obs.
inline std::atomic<bool> g_runtime_enabled{true};
inline bool enabled() noexcept {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  g_runtime_enabled.store(on, std::memory_order_relaxed);
}

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  // Finds the first bound >= v (linear scan: bound lists are short) and
  // bumps that bucket; values above every bound land in the overflow slot.
  // Also folds v into the running min/max (CAS loops — order-independent,
  // so the extremes stay in the deterministic export).
  void record(double v) noexcept;

  // Bulk-adds a locally-accumulated BucketStats with identical bounds
  // (deterministic flush at stage close; mismatched bounds are ignored).
  void merge(const BucketStats& stats) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  void fold_extremes(double lo, double hi) noexcept;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;  // +inf when empty
  std::atomic<double> max_;  // -inf when empty
};

// Thread-local sink for closed spans. Owned jointly by the registry (for
// flushing) and the thread (for writing); the per-buffer mutex makes a
// flush concurrent with an in-flight span close safe.
struct SpanBuffer {
  std::uint32_t tid = 0;
  int depth = 0;  // touched only by the owning thread
  std::mutex mutex;
  std::vector<SpanEvent> events;
};

class MetricsRegistry {
 public:
  // The process-wide instance. Intentionally leaked so instrumentation in
  // static destructors / late-exiting worker threads never touches a dead
  // registry (the pointer stays reachable, so LeakSanitizer is quiet).
  static MetricsRegistry& global();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent: the first call creates the family member,
  // later calls (any stability / bounds) return the existing handle.
  // References stay valid for the registry's lifetime; reset() zeroes
  // values but never invalidates handles.
  Counter& counter(std::string_view name, Labels labels = {},
                   Stability stability = Stability::kDeterministic);
  Gauge& gauge(std::string_view name, Labels labels = {},
               Stability stability = Stability::kDeterministic);
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {},
                       Stability stability = Stability::kTiming);

  // Deterministically ordered snapshot of every registered metric plus
  // per-name span aggregates.
  MetricsSnapshot snapshot() const;

  // All closed spans so far (Chrome-trace export), in close order.
  std::vector<SpanEvent> span_events() const;

  // Zeroes every value and drops recorded spans; keeps registrations and
  // thread buffers alive (cached handles stay valid).
  void reset();

  // Span plumbing (used by obs::Span).
  std::shared_ptr<SpanBuffer> thread_buffer();
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }
  std::uint64_t next_seq() noexcept {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct CounterEntry {
    std::string name, labels;
    Stability stability;
    Counter counter;
  };
  struct GaugeEntry {
    std::string name, labels;
    Stability stability;
    Gauge gauge;
  };
  struct HistogramEntry {
    std::string name, labels;
    Stability stability;
    Histogram histogram;
    HistogramEntry(std::string n, std::string l, Stability s,
                   std::vector<double> bounds)
        : name(std::move(n)), labels(std::move(l)), stability(s),
          histogram(std::move(bounds)) {}
  };

  mutable std::mutex mutex_;
  // Keyed by "name{labels}"; std::map so snapshots iterate sorted.
  std::map<std::string, std::unique_ptr<CounterEntry>> counters_;
  std::map<std::string, std::unique_ptr<GaugeEntry>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramEntry>> histograms_;

  mutable std::mutex span_mutex_;
  std::vector<std::shared_ptr<SpanBuffer>> span_buffers_;
  std::uint32_t next_tid_ = 0;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;
};

// Convenience: handles from the global registry. Cache the reference at
// hot call sites (function-local static) — the lookup takes a mutex.
inline Counter& counter(std::string_view name, Labels labels = {},
                        Stability stability = Stability::kDeterministic) {
  return MetricsRegistry::global().counter(name, std::move(labels), stability);
}
inline Gauge& gauge(std::string_view name, Labels labels = {},
                    Stability stability = Stability::kDeterministic) {
  return MetricsRegistry::global().gauge(name, std::move(labels), stability);
}
inline Histogram& histogram(std::string_view name, std::vector<double> bounds,
                            Labels labels = {},
                            Stability stability = Stability::kTiming) {
  return MetricsRegistry::global().histogram(name, std::move(bounds),
                                             std::move(labels), stability);
}

}  // namespace fa::obs
