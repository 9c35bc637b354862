// Online failure detection over a timestamp-ordered event stream.
//
// OnlineDetector is a trace::StreamSink that folds the feed through
// incremental estimators whose memory is bounded by the sliding window and
// the number of strata — never by stream length, and never by a
// materialized TraceDatabase:
//
//   * sliding-window failure rates per stratum (all machines, each
//     subsystem, each machine type, each recorded failure class): a deque
//     of in-window crash timestamps, sampled at every tick close into a
//     per-server-per-week rate comparable with the batch Fig. 2 numbers;
//   * change-point detection: a Poisson likelihood-ratio CUSUM per stratum
//     over per-tick crash counts. The baseline rate λ0 is learned during
//     the warmup period and then frozen; the statistic accumulates
//     S ← max(0, S + n·ln ρ − λ0(ρ−1)) for design ratio ρ and alerts when
//     S crosses the threshold (in nats). After an alert the channel
//     re-learns its baseline at the post-change level, so a persistent rate
//     step yields exactly one alert per stratum;
//   * EWMA smoothing + two-sided standardized CUSUM on the usage
//     covariates (fleet-mean CPU and memory utilization per tick);
//   * online recurrence tracking: the fraction of crashes that strike a
//     server already hit within the recurrence window, via a per-server
//     last-crash table (bounded by distinct crashed servers).
//
// Robustness policies (all deterministic, all counted in the report):
// duplicate ticket ids within the sliding window are dropped; out-of-order
// timestamps follow DetectorOptions::out_of_order — reject (throw), buffer
// (reorder within `reorder_slack`, later arrivals dropped as late), or
// drop. Every estimate and alert depends only on the event sequence, so a
// stream produces byte-identical alert logs at any --threads setting.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/trace/event_stream.h"
#include "src/util/sim_time.h"

namespace fa::detect {

enum class OutOfOrderPolicy : std::uint8_t {
  kReject = 0,  // strict feed: an out-of-order timestamp throws
  kBuffer = 1,  // reorder within `reorder_slack`; later arrivals dropped
  kDrop = 2,    // drop any event older than the watermark
};

struct DetectorOptions {
  Duration window = kMinutesPerWeek;      // sliding rate window
  Duration tick = kMinutesPerDay;         // CUSUM evaluation cadence
  Duration warmup = 8 * kMinutesPerWeek;  // baseline learning period
  // Poisson CUSUM design: tuned to detect a rate ratio `cusum_ratio`;
  // alert when the statistic exceeds `cusum_threshold` nats.
  // Threshold in nats, tuned on stationary scale-0.5 replays: the worst
  // stationary excursion across 20 seeds peaks near 20 nats (the "other"
  // class mixes heterogeneous incident kinds and is the most overdispersed
  // stratum), while a genuine x4 step accumulates 2-3 nats/day on the
  // aggregate channels.
  double cusum_ratio = 3.0;
  double cusum_threshold = 22.0;
  // A rate channel arms only when its warmup saw at least this many
  // incidents; a stratum below the floor has no usable baseline and is
  // permanently disarmed (its rate estimators keep running, its CUSUM
  // stays silent). Arming strictly at the warmup deadline — never later —
  // keeps a post-change learning period from freezing a contaminated
  // baseline and alerting long after the fact.
  std::uint64_t min_warmup_events = 24;
  // Usage covariates: EWMA weight per tick mean, and the two-sided CUSUM
  // slack / threshold in (warmup-estimated) standard deviations, with a
  // floor on that deviation in percentage points.
  // The sigma floor absorbs slow fleet-composition drift (machines created
  // during the stream shift the fleet mean by a couple of points per year)
  // so only genuine level steps accumulate.
  double ewma_alpha = 0.3;
  double usage_k_sigma = 1.0;
  double usage_h_sigma = 10.0;
  double usage_min_sigma = 2.0;
  Duration recurrence_window = kMinutesPerWeek;
  OutOfOrderPolicy out_of_order = OutOfOrderPolicy::kReject;
  Duration reorder_slack = 0;  // kBuffer: max lateness absorbed
  // Label attached to this detector's obs metric family (fa.detect.*).
  std::string tenant = "default";
};

enum class AlertKind : std::uint8_t { kRateShift = 0, kUsageShift = 1 };
std::string_view to_string(AlertKind kind);

struct Alert {
  TimePoint at = 0;  // detection timestamp (the tick close that fired)
  AlertKind kind = AlertKind::kRateShift;
  std::string stratum;     // canonical channel name, e.g. "sys=Sys_II"
  double observed = 0.0;   // per-tick level at detection
  double baseline = 0.0;   // frozen per-tick baseline
  double score = 0.0;      // CUSUM statistic at the crossing
  // Sim-time detection lag: alert tick minus the start of the tick where
  // the CUSUM excursion began (rate alerts only; 0 for usage alerts).
  // Carried on the struct, never printed by alert_line() — the golden
  // alert-log format is pinned.
  Duration onset_lag = 0;
};

// Canonical single-line rendering (the alert-log format golden files pin).
std::string alert_line(const Alert& alert);

struct StratumStats {
  std::string name;
  std::size_t servers = 0;
  std::uint64_t crashes = 0;
  bool armed = false;           // CUSUM had enough warmup data
  double baseline_per_tick = 0.0;
  // Time-averaged sliding-window rate and whole-stream rate, both in
  // failures per server per week (the batch Fig. 2 unit).
  double mean_window_rate = 0.0;
  double cumulative_weekly_rate = 0.0;
  std::uint64_t alerts = 0;
};

struct UsageStats {
  std::string name;         // "cpu" / "mem"
  std::uint64_t samples = 0;
  double mean = 0.0;        // exact running mean over all samples
  double ewma = 0.0;        // per-tick EWMA of tick means
  std::uint64_t alerts = 0;
};

struct DetectorReport {
  TimePoint stream_begin = 0;
  TimePoint stream_end = 0;
  std::uint64_t events = 0;
  std::uint64_t tickets = 0;
  std::uint64_t crash_tickets = 0;
  std::uint64_t usage_samples = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t reordered_buffered = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t recurrent_crashes = 0;
  std::vector<StratumStats> strata;  // fixed channel order (all, sys, type, class)
  std::vector<UsageStats> usage;     // cpu, mem
  std::vector<Alert> alerts;         // in detection order

  // End-to-end lag accounting, all in deterministic sim-time minutes (or
  // entry counts for the occupancy histogram):
  //   event_lag      per-arrival disorder: newest-arrival-seen minus the
  //                  event's own timestamp (0 on an ordered stream);
  //   watermark_lag  per-ingest staleness: how far the arrival frontier had
  //                  run ahead when the event was finally processed
  //                  (reorder-buffer hold time under kBuffer);
  //   detection_lag  per-rate-alert onset lag (Alert::onset_lag);
  //   ooo_occupancy  reorder-buffer size sampled at each kBuffer arrival.
  obs::BucketStats event_lag;
  obs::BucketStats watermark_lag;
  obs::BucketStats detection_lag;
  obs::BucketStats ooo_occupancy;

  double recurrence_fraction() const {
    return crash_tickets > 0
               ? static_cast<double>(recurrent_crashes) /
                     static_cast<double>(crash_tickets)
               : 0.0;
  }
  // One alert_line() per alert (newline-terminated); byte-stable.
  std::string alert_log() const;
  std::string to_string() const;
};

class OnlineDetector final : public trace::StreamSink {
 public:
  explicit OnlineDetector(DetectorOptions options = {});

  void begin(const trace::StreamMeta& meta) override;
  void on_event(const trace::StreamEvent& event) override;
  void finish(TimePoint stream_end) override;

  // Live alert delivery (e.g. `fa_trace watch` printing); called in
  // detection order, before finish().
  void set_alert_callback(std::function<void(const Alert&)> callback) {
    alert_callback_ = std::move(callback);
  }

  bool finished() const { return finished_; }
  // Valid after finish().
  const DetectorReport& report() const;

  // Point-in-time view for the health heartbeat emitter: valid any time
  // after begin(), including mid-stream. Pure function of the events
  // processed so far, so snapshots taken at sim-time boundaries are
  // byte-identical at any thread count.
  struct LiveStats {
    TimePoint watermark = 0;     // highest processed event time
    TimePoint arrival_high = 0;  // newest arrival seen (frontier)
    std::uint64_t events = 0;
    std::uint64_t tickets = 0;
    std::uint64_t crash_tickets = 0;
    std::uint64_t usage_samples = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t reordered_buffered = 0;
    std::uint64_t late_dropped = 0;
    std::uint64_t recurrent_crashes = 0;
    std::uint64_t alerts = 0;
    std::size_t ooo_pending = 0;  // reorder-buffer entries held right now
    obs::BucketStats event_lag;
    obs::BucketStats watermark_lag;
    obs::BucketStats detection_lag;
    obs::BucketStats ooo_occupancy;
    struct Stratum {
      std::string name;
      std::uint64_t crashes = 0;
      double window_rate = 0.0;  // live window, failures/server/week
      std::uint64_t alerts = 0;
      bool armed = false;
    };
    std::vector<Stratum> strata;

    double recurrence_fraction() const {
      return crash_tickets > 0
                 ? static_cast<double>(recurrent_crashes) /
                       static_cast<double>(crash_tickets)
                 : 0.0;
    }
  };
  LiveStats live_stats() const;

 private:
  struct RateChannel {
    std::string name;
    std::size_t servers = 0;
    std::deque<TimePoint> in_window;  // crash times within [t - window, t]
    std::uint64_t total = 0;
    std::uint64_t tick_count = 0;  // incident arrivals in the open tick
    // CUSUM lifecycle: learning (warmup or post-alert relearn) -> armed,
    // or -> disabled when the learning period misses the event floor.
    bool armed = false;
    bool disabled = false;
    double learn_sum = 0.0;
    std::uint64_t learn_ticks = 0;
    double lambda0 = 0.0;  // frozen per-tick baseline
    double cusum = 0.0;
    // Start of the tick where the current CUSUM excursion began rising
    // from zero; -1 while the statistic sits at zero. Alert lag = alert
    // tick minus onset.
    TimePoint onset = -1;
    std::uint64_t alerts = 0;
    // Window-rate time average, sampled at tick closes past the first
    // full window.
    double rate_sum = 0.0;
    std::uint64_t rate_samples = 0;
  };

  struct UsageChannel {
    std::string name;
    std::uint64_t samples = 0;
    double sum = 0.0;            // running mean numerator
    double tick_sum = 0.0;       // open tick accumulation
    std::uint64_t tick_n = 0;
    bool ewma_primed = false;
    double ewma = 0.0;
    // Two-sided standardized CUSUM; learning phase collects tick means.
    bool armed = false;
    std::vector<double> learn_means;
    double mu0 = 0.0;
    double sigma0 = 0.0;
    double cusum_up = 0.0;
    double cusum_down = 0.0;
    std::uint64_t alerts = 0;
  };

  // Open-addressing map from an id (ticket, incident or server) to a time:
  // linear probing over a power-of-two slot array kept at most a quarter
  // full (short probe runs keep the branches predictable), and
  // backward-shift erase, so no tombstones pile up and a lookup stops at
  // the first empty slot.
  class IdTimes {
   public:
    // The time mapped to `key`, and whether it was absent (then `value`).
    std::pair<TimePoint*, bool> try_emplace(std::int32_t key, TimePoint value);
    // Removes `key` if it maps to `value`.
    void erase(std::int32_t key, TimePoint value);

   private:
    struct Slot {
      TimePoint value = 0;
      std::int32_t key = 0;
      bool used = false;
    };
    std::size_t home(std::int32_t key) const;
    std::size_t find(std::int32_t key) const;  // slot index, or an empty slot
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int bits_ = 0;  // slots_.size() == 2^bits_ once allocated
  };

  void ingest(const trace::StreamEvent& event);  // post-ordering-policy path
  void advance_to(TimePoint t);                  // close ticks before t
  void close_tick(TimePoint tick_end);
  void close_rate_tick(RateChannel& channel, TimePoint tick_end);
  void close_usage_tick(UsageChannel& channel, TimePoint tick_end);
  void evict_window(RateChannel& channel, TimePoint now);
  void raise(Alert alert);

  DetectorOptions options_;
  trace::StreamMeta meta_;
  bool begun_ = false;
  bool finished_ = false;
  std::uint64_t learn_ticks_target_ = 0;

  TimePoint watermark_ = 0;   // highest processed event time
  TimePoint tick_start_ = 0;  // open tick [tick_start_, tick_start_ + tick)
  std::vector<RateChannel> rates_;   // all, per-subsystem, per-type, per-class
  std::vector<UsageChannel> usage_;  // cpu, mem

  // Duplicate-id suppression within the sliding window: ticket id -> the
  // time it entered the window.
  IdTimes window_ids_;
  std::deque<std::pair<TimePoint, std::int32_t>> window_id_queue_;

  // Incident-arrival tracking: the CUSUM counts an incident once, at its
  // first crash ticket — one spatial incident can open tens of tickets at
  // once and one aftershock chain can ticket for days, and treating those
  // as independent Poisson arrivals would fire on every large cluster.
  // Entries idle for a full window are evicted, so memory stays bounded by
  // incident turnover, not stream length.
  IdTimes incident_last_seen_;
  std::deque<std::pair<TimePoint, std::int32_t>> incident_queue_;

  // Reorder buffer (kBuffer): min-heap on event time with a deterministic
  // tie-break on arrival sequence.
  struct Pending {
    trace::StreamEvent event;
    std::uint64_t seq = 0;
  };
  struct PendingAfter {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.event.at != b.event.at) return a.event.at > b.event.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, PendingAfter> pending_;
  std::uint64_t arrival_seq_ = 0;
  TimePoint arrival_high_ = 0;  // newest arrival time seen (any policy)

  // Lag accounting (see DetectorReport): plain local histograms so the
  // numbers exist even with observability disabled; mirrored into the obs
  // registry once, at finish(). Zero lags, one per event on an ordered
  // stream, are only counted here and folded into the two histograms where
  // they are read (live_stats(), finish()).
  obs::BucketStats event_lag_{obs::sim_lag_minutes_bounds()};
  obs::BucketStats watermark_lag_{obs::sim_lag_minutes_bounds()};
  obs::BucketStats detection_lag_{obs::sim_lag_minutes_bounds()};
  obs::BucketStats ooo_occupancy_{obs::occupancy_bounds()};
  std::uint64_t event_lag_zeros_ = 0;
  std::uint64_t watermark_lag_zeros_ = 0;

  // Recurrence: last crash time per server seen crashing.
  IdTimes last_crash_;

  DetectorReport report_;
  std::function<void(const Alert&)> alert_callback_;
};

}  // namespace fa::detect
