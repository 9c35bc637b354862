#include "src/detect/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/error.h"

namespace fa::detect {
namespace {

// Channel layout: one "all" channel, then the five subsystems, the two
// machine types, and the six failure classes, in enum order. The index math
// in ingest() relies on this layout.
constexpr std::size_t kAllChannel = 0;
constexpr std::size_t kSubsystemBase = 1;
constexpr std::size_t kTypeBase = kSubsystemBase + trace::kSubsystemCount;
constexpr std::size_t kClassBase = kTypeBase + trace::kMachineTypeCount;
constexpr std::size_t kRateChannelCount = kClassBase + trace::kFailureClassCount;

std::string channel_token(std::string_view raw) {
  std::string token(raw);
  std::replace(token.begin(), token.end(), ' ', '_');
  return token;
}

// `stats` with `zeros` more recordings of 0.0. Exact against recording
// them in stream order: the min, max and bucket counts do not depend on
// order, and adding +0.0 leaves a sum of non-negative lags unchanged.
obs::BucketStats with_zeros(obs::BucketStats stats, std::uint64_t zeros) {
  if (zeros == 0) return stats;
  std::size_t b = 0;
  while (b < stats.bounds.size() && 0.0 > stats.bounds[b]) ++b;
  if (stats.buckets.empty()) stats.buckets.assign(stats.bounds.size() + 1, 0);
  stats.buckets[b] += zeros;
  stats.min = stats.count == 0 ? 0.0 : std::min(stats.min, 0.0);
  stats.max = stats.count == 0 ? 0.0 : std::max(stats.max, 0.0);
  stats.count += zeros;
  return stats;
}

double sample_stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

}  // namespace

std::string_view to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kRateShift:
      return "rate";
    case AlertKind::kUsageShift:
      return "usage";
  }
  throw Error("to_string: invalid AlertKind");
}

std::string alert_line(const Alert& alert) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ALERT t=%lld (%s) kind=%s stratum=%s observed=%.4f "
                "baseline=%.4f score=%.4f",
                static_cast<long long>(alert.at), format_time(alert.at).c_str(),
                std::string(to_string(alert.kind)).c_str(),
                alert.stratum.c_str(), alert.observed, alert.baseline,
                alert.score);
  return buf;
}

std::string DetectorReport::alert_log() const {
  std::string log;
  for (const Alert& a : alerts) {
    log += alert_line(a);
    log += '\n';
  }
  return log;
}

std::string DetectorReport::to_string() const {
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf), "stream: %s .. %s\n",
                format_time(stream_begin).c_str(),
                format_time(stream_end).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "events: %llu (tickets %llu, crashes %llu, usage %llu)\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(tickets),
                static_cast<unsigned long long>(crash_tickets),
                static_cast<unsigned long long>(usage_samples));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "dropped: duplicates=%llu late=%llu buffered=%llu\n",
                static_cast<unsigned long long>(duplicates_dropped),
                static_cast<unsigned long long>(late_dropped),
                static_cast<unsigned long long>(reordered_buffered));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "lag (minutes): event p50=%.0f p99=%.0f max=%.0f | watermark "
                "p99=%.0f max=%.0f | detection p50=%.0f max=%.0f | "
                "ooo_occupancy max=%.0f\n",
                event_lag.quantile(0.50), event_lag.quantile(0.99),
                event_lag.max, watermark_lag.quantile(0.99),
                watermark_lag.max, detection_lag.quantile(0.50),
                detection_lag.max, ooo_occupancy.max);
  out += buf;
  std::snprintf(buf, sizeof(buf), "recurrence: %llu/%llu (%.2f%%)\n",
                static_cast<unsigned long long>(recurrent_crashes),
                static_cast<unsigned long long>(crash_tickets),
                100.0 * recurrence_fraction());
  out += buf;
  out += "strata:\n";
  for (const StratumStats& s : strata) {
    std::snprintf(buf, sizeof(buf),
                  "  %-18s servers=%-6zu crashes=%-6llu window_rate=%.4f "
                  "cum_rate=%.4f alerts=%llu%s\n",
                  s.name.c_str(), s.servers,
                  static_cast<unsigned long long>(s.crashes),
                  s.mean_window_rate, s.cumulative_weekly_rate,
                  static_cast<unsigned long long>(s.alerts),
                  s.armed ? " [armed]" : "");
    out += buf;
  }
  out += "usage:\n";
  for (const UsageStats& u : usage) {
    std::snprintf(buf, sizeof(buf),
                  "  %-4s samples=%-7llu mean=%.2f ewma=%.2f alerts=%llu\n",
                  u.name.c_str(), static_cast<unsigned long long>(u.samples),
                  u.mean, u.ewma, static_cast<unsigned long long>(u.alerts));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "alerts: %zu\n", alerts.size());
  out += buf;
  return out;
}

std::size_t OnlineDetector::IdTimes::home(std::int32_t key) const {
  // Fibonacci hashing: the top bits of the golden-ratio product spread
  // consecutive ids over the whole table.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key)) *
       0x9E3779B97F4A7C15ULL) >>
      (64 - bits_));
}

std::size_t OnlineDetector::IdTimes::find(std::int32_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void OnlineDetector::IdTimes::grow() {
  std::vector<Slot> old = std::move(slots_);
  bits_ = old.empty() ? 4 : bits_ + 1;
  slots_.assign(std::size_t{1} << bits_, Slot{});
  for (const Slot& slot : old) {
    if (slot.used) slots_[find(slot.key)] = slot;
  }
}

std::pair<TimePoint*, bool> OnlineDetector::IdTimes::try_emplace(
    std::int32_t key, TimePoint value) {
  if (4 * (size_ + 1) > slots_.size()) grow();
  Slot& slot = slots_[find(key)];
  if (slot.used) return {&slot.value, false};
  slot = Slot{value, key, true};
  ++size_;
  return {&slot.value, true};
}

void OnlineDetector::IdTimes::erase(std::int32_t key, TimePoint value) {
  if (slots_.empty()) return;
  std::size_t hole = find(key);
  if (!slots_[hole].used || slots_[hole].value != value) return;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it already sits on
  // its probe path.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].used = false;
  --size_;
}

OnlineDetector::OnlineDetector(DetectorOptions options)
    : options_(std::move(options)) {
  require(options_.window > 0, "OnlineDetector: window must be positive");
  require(options_.tick > 0, "OnlineDetector: tick must be positive");
  require(options_.warmup >= options_.tick,
          "OnlineDetector: warmup must cover at least one tick");
  require(options_.cusum_ratio > 1.0,
          "OnlineDetector: cusum_ratio must exceed 1");
  require(options_.cusum_threshold > 0.0,
          "OnlineDetector: cusum_threshold must be positive");
  require(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
          "OnlineDetector: ewma_alpha must lie in (0, 1]");
  require(options_.out_of_order != OutOfOrderPolicy::kBuffer ||
              options_.reorder_slack > 0,
          "OnlineDetector: kBuffer needs a positive reorder_slack");
}

void OnlineDetector::begin(const trace::StreamMeta& meta) {
  require(!begun_, "OnlineDetector: begin() called twice");
  require(meta.window.length() > 0, "OnlineDetector: empty stream window");
  begun_ = true;
  meta_ = meta;
  watermark_ = meta.window.begin;
  tick_start_ = meta.window.begin;
  learn_ticks_target_ =
      static_cast<std::uint64_t>(options_.warmup / options_.tick);
  report_.stream_begin = meta.window.begin;

  rates_.resize(kRateChannelCount);
  rates_[kAllChannel].name = "all";
  rates_[kAllChannel].servers = meta.server_count;
  for (int sys = 0; sys < trace::kSubsystemCount; ++sys) {
    RateChannel& ch = rates_[kSubsystemBase + sys];
    ch.name = "sys=" + channel_token(trace::subsystem_name(
                           static_cast<trace::Subsystem>(sys)));
    ch.servers = meta.servers_by_subsystem[static_cast<std::size_t>(sys)];
  }
  for (int type = 0; type < trace::kMachineTypeCount; ++type) {
    RateChannel& ch = rates_[kTypeBase + type];
    ch.name = "type=" + channel_token(trace::to_string(
                            static_cast<trace::MachineType>(type)));
    ch.servers = meta.servers_by_type[static_cast<std::size_t>(type)];
  }
  for (trace::FailureClass cls : trace::kAllFailureClasses) {
    RateChannel& ch = rates_[kClassBase + static_cast<std::size_t>(cls)];
    ch.name = "class=" + channel_token(trace::to_string(cls));
    ch.servers = meta.server_count;
  }

  usage_.resize(2);
  usage_[0].name = "cpu";
  usage_[1].name = "mem";
}

void OnlineDetector::on_event(const trace::StreamEvent& event) {
  require(begun_, "OnlineDetector: on_event() before begin()");
  require(!finished_, "OnlineDetector: on_event() after finish()");
  // Arrival-disorder accounting, shared by every policy: how far behind
  // the newest arrival seen so far did this event land? Zero on an ordered
  // stream.
  const bool late_arrival = event.at < arrival_high_;
  if (late_arrival) {
    event_lag_.record(static_cast<double>(arrival_high_ - event.at));
  } else {
    ++event_lag_zeros_;
    arrival_high_ = event.at;
  }
  switch (options_.out_of_order) {
    case OutOfOrderPolicy::kReject:
      require(event.at >= watermark_,
              "OnlineDetector: out-of-order event on a strict stream");
      ingest(event);
      return;
    case OutOfOrderPolicy::kDrop:
      if (event.at < watermark_) {
        ++report_.late_dropped;
        return;
      }
      ingest(event);
      return;
    case OutOfOrderPolicy::kBuffer: {
      if (late_arrival) ++report_.reordered_buffered;
      pending_.push(Pending{event, arrival_seq_++});
      // Anything older than the slack behind the newest arrival can no
      // longer be overtaken: release it in timestamp order.
      const TimePoint horizon = arrival_high_ - options_.reorder_slack;
      while (!pending_.empty() && pending_.top().event.at <= horizon) {
        trace::StreamEvent next = pending_.top().event;
        pending_.pop();
        if (next.at < watermark_) {
          ++report_.late_dropped;
        } else {
          ingest(next);
        }
      }
      ooo_occupancy_.record(static_cast<double>(pending_.size()));
      return;
    }
  }
  throw Error("OnlineDetector: invalid out-of-order policy");
}

void OnlineDetector::ingest(const trace::StreamEvent& event) {
  // Staleness at processing time: the arrival frontier minus the event's
  // own timestamp — the reorder buffer's hold time under kBuffer, zero on
  // the direct path.
  if (event.at < arrival_high_) {
    watermark_lag_.record(static_cast<double>(arrival_high_ - event.at));
  } else {
    ++watermark_lag_zeros_;
  }
  advance_to(event.at);
  watermark_ = std::max(watermark_, event.at);
  ++report_.events;

  if (event.kind == trace::StreamEventKind::kTicket) {
    const trace::StreamTicket& ticket = event.ticket;
    ++report_.tickets;

    // Duplicate ticket ids within the sliding window are retransmissions.
    while (!window_id_queue_.empty() &&
           window_id_queue_.front().first + options_.window <= event.at) {
      const auto [entered, id] = window_id_queue_.front();
      window_id_queue_.pop_front();
      window_ids_.erase(id, entered);
    }
    if (!window_ids_.try_emplace(ticket.id.value, event.at).second) {
      ++report_.duplicates_dropped;
      return;
    }
    window_id_queue_.emplace_back(event.at, ticket.id.value);

    if (!ticket.is_crash) return;
    ++report_.crash_tickets;

    const auto [last, first_crash] =
        last_crash_.try_emplace(ticket.server.value, event.at);
    if (!first_crash) {
      if (event.at - *last <= options_.recurrence_window) {
        ++report_.recurrent_crashes;
      }
      *last = event.at;
    }

    // Is this the incident's first crash ticket (within recent memory)?
    // Chain follow-ups refresh the entry and never count as arrivals.
    while (!incident_queue_.empty() &&
           incident_queue_.front().first + options_.window <= event.at) {
      const auto [seen_at, id] = incident_queue_.front();
      incident_queue_.pop_front();
      incident_last_seen_.erase(id, seen_at);
    }
    const auto [seen, new_incident] =
        incident_last_seen_.try_emplace(ticket.incident.value, event.at);
    if (!new_incident) *seen = event.at;
    incident_queue_.emplace_back(event.at, ticket.incident.value);

    const std::size_t channels[] = {
        kAllChannel,
        kSubsystemBase + ticket.subsystem,
        kTypeBase + static_cast<std::size_t>(event.machine_type),
        kClassBase + static_cast<std::size_t>(ticket.true_class),
    };
    for (std::size_t idx : channels) {
      RateChannel& ch = rates_[idx];
      ch.in_window.push_back(event.at);
      ++ch.total;
      if (new_incident) ++ch.tick_count;
    }
    return;
  }

  ++report_.usage_samples;
  const trace::WeeklyUsage& sample = event.usage;
  const double values[] = {sample.cpu_util, sample.mem_util};
  for (std::size_t i = 0; i < usage_.size(); ++i) {
    UsageChannel& ch = usage_[i];
    ++ch.samples;
    ch.sum += values[i];
    ch.tick_sum += values[i];
    ++ch.tick_n;
  }
}

void OnlineDetector::advance_to(TimePoint t) {
  while (tick_start_ + options_.tick <= t) {
    close_tick(tick_start_ + options_.tick);
    tick_start_ += options_.tick;
  }
}

void OnlineDetector::close_tick(TimePoint tick_end) {
  for (RateChannel& ch : rates_) close_rate_tick(ch, tick_end);
  for (UsageChannel& ch : usage_) close_usage_tick(ch, tick_end);
}

void OnlineDetector::evict_window(RateChannel& channel, TimePoint now) {
  while (!channel.in_window.empty() &&
         channel.in_window.front() + options_.window <= now) {
    channel.in_window.pop_front();
  }
}

void OnlineDetector::close_rate_tick(RateChannel& channel, TimePoint tick_end) {
  evict_window(channel, tick_end);

  // Sample the sliding-window rate once a full window exists, in failures
  // per server per week (the unit the batch analysis reports).
  if (channel.servers > 0 &&
      tick_end - meta_.window.begin >= options_.window) {
    const double weeks = static_cast<double>(options_.window) /
                         static_cast<double>(kMinutesPerWeek);
    channel.rate_sum += static_cast<double>(channel.in_window.size()) /
                        (static_cast<double>(channel.servers) * weeks);
    ++channel.rate_samples;
  }

  const std::uint64_t n = channel.tick_count;
  channel.tick_count = 0;
  if (channel.disabled) return;

  if (!channel.armed) {
    channel.learn_sum += static_cast<double>(n);
    ++channel.learn_ticks;
    // One shot at the warmup deadline: enough incidents for a Poisson
    // baseline arms the channel, too few disarms it for good.
    if (channel.learn_ticks >= learn_ticks_target_) {
      if (channel.learn_sum >=
          static_cast<double>(options_.min_warmup_events)) {
        channel.lambda0 =
            channel.learn_sum / static_cast<double>(channel.learn_ticks);
        channel.armed = true;
        channel.cusum = 0.0;
      } else {
        channel.disabled = true;
      }
    }
    return;
  }

  // Poisson likelihood-ratio CUSUM (in nats) against the frozen baseline,
  // designed for a rate step of factor `cusum_ratio`.
  const double rho = options_.cusum_ratio;
  const double prev_cusum = channel.cusum;
  channel.cusum = std::max(
      0.0, channel.cusum + static_cast<double>(n) * std::log(rho) -
               channel.lambda0 * (rho - 1.0));
  // Excursion onset: the tick where the statistic first left zero — the
  // earliest moment the eventual alert can be blamed on. Lag = alert tick
  // minus the start of that tick (its events carry timestamps >= there).
  if (channel.cusum <= 0.0) {
    channel.onset = -1;
  } else if (prev_cusum <= 0.0) {
    channel.onset = tick_end - options_.tick;
  }
  if (channel.cusum > options_.cusum_threshold) {
    Alert alert;
    alert.at = tick_end;
    alert.kind = AlertKind::kRateShift;
    alert.stratum = channel.name;
    const double weeks_per_window = static_cast<double>(options_.window) /
                                    static_cast<double>(options_.tick);
    alert.observed =
        static_cast<double>(channel.in_window.size()) / weeks_per_window;
    alert.baseline = channel.lambda0;
    alert.score = channel.cusum;
    alert.onset_lag =
        channel.onset >= 0 ? tick_end - channel.onset : Duration{0};
    detection_lag_.record(static_cast<double>(alert.onset_lag));
    ++channel.alerts;
    raise(std::move(alert));
    // Re-learn the baseline at the post-change level so a persistent step
    // produces exactly one alert per stratum.
    channel.armed = false;
    channel.learn_sum = 0.0;
    channel.learn_ticks = 0;
    channel.cusum = 0.0;
    channel.onset = -1;
  }
}

void OnlineDetector::close_usage_tick(UsageChannel& channel,
                                      TimePoint tick_end) {
  if (channel.tick_n == 0) return;  // usage arrives weekly; idle ticks skip
  const double mean =
      channel.tick_sum / static_cast<double>(channel.tick_n);
  channel.tick_sum = 0.0;
  channel.tick_n = 0;

  if (!channel.ewma_primed) {
    channel.ewma = mean;
    channel.ewma_primed = true;
  } else {
    channel.ewma = options_.ewma_alpha * mean +
                   (1.0 - options_.ewma_alpha) * channel.ewma;
  }

  // Learning counts data-bearing ticks (one per usage week), so the usage
  // warmup matches the rate warmup in wall-clock terms.
  const std::size_t learn_target = std::max<std::size_t>(
      4, static_cast<std::size_t>(options_.warmup / kMinutesPerWeek));
  if (!channel.armed) {
    channel.learn_means.push_back(mean);
    if (channel.learn_means.size() >= learn_target) {
      double mu = 0.0;
      for (double m : channel.learn_means) mu += m;
      channel.mu0 = mu / static_cast<double>(channel.learn_means.size());
      channel.sigma0 =
          std::max(options_.usage_min_sigma, sample_stddev(channel.learn_means));
      channel.armed = true;
      channel.cusum_up = 0.0;
      channel.cusum_down = 0.0;
      channel.learn_means.clear();
    }
    return;
  }

  // Two-sided standardized CUSUM on the EWMA-smoothed tick mean.
  const double z = (channel.ewma - channel.mu0) / channel.sigma0;
  channel.cusum_up =
      std::max(0.0, channel.cusum_up + z - options_.usage_k_sigma);
  channel.cusum_down =
      std::max(0.0, channel.cusum_down - z - options_.usage_k_sigma);
  const double score = std::max(channel.cusum_up, channel.cusum_down);
  if (score > options_.usage_h_sigma) {
    Alert alert;
    alert.at = tick_end;
    alert.kind = AlertKind::kUsageShift;
    alert.stratum = "usage=" + channel.name;
    alert.observed = channel.ewma;
    alert.baseline = channel.mu0;
    alert.score = score;
    ++channel.alerts;
    raise(std::move(alert));
    channel.armed = false;
    channel.cusum_up = 0.0;
    channel.cusum_down = 0.0;
  }
}

void OnlineDetector::raise(Alert alert) {
  if (alert_callback_) alert_callback_(alert);
  report_.alerts.push_back(std::move(alert));
}

void OnlineDetector::finish(TimePoint stream_end) {
  require(begun_, "OnlineDetector: finish() before begin()");
  require(!finished_, "OnlineDetector: finish() called twice");
  require(stream_end >= watermark_,
          "OnlineDetector: stream_end precedes delivered events");

  // Release everything still held in the reorder buffer, in time order.
  while (!pending_.empty()) {
    trace::StreamEvent next = pending_.top().event;
    pending_.pop();
    if (next.at < watermark_) {
      ++report_.late_dropped;
    } else {
      ingest(next);
    }
  }

  // Close every whole tick the stream covered; a trailing partial tick has
  // no comparable Poisson baseline and is discarded.
  advance_to(stream_end);
  finished_ = true;
  report_.stream_end = stream_end;

  report_.strata.reserve(rates_.size());
  for (const RateChannel& ch : rates_) {
    StratumStats s;
    s.name = ch.name;
    s.servers = ch.servers;
    s.crashes = ch.total;
    s.armed = ch.armed;
    s.baseline_per_tick = ch.lambda0;
    s.mean_window_rate =
        ch.rate_samples > 0
            ? ch.rate_sum / static_cast<double>(ch.rate_samples)
            : 0.0;
    const double weeks =
        static_cast<double>(stream_end - meta_.window.begin) /
        static_cast<double>(kMinutesPerWeek);
    s.cumulative_weekly_rate =
        ch.servers > 0 && weeks > 0.0
            ? static_cast<double>(ch.total) /
                  (static_cast<double>(ch.servers) * weeks)
            : 0.0;
    s.alerts = ch.alerts;
    report_.strata.push_back(std::move(s));
  }
  report_.usage.reserve(usage_.size());
  for (const UsageChannel& ch : usage_) {
    UsageStats u;
    u.name = ch.name;
    u.samples = ch.samples;
    u.mean = ch.samples > 0
                 ? ch.sum / static_cast<double>(ch.samples)
                 : 0.0;
    u.ewma = ch.ewma;
    u.alerts = ch.alerts;
    report_.usage.push_back(std::move(u));
  }
  event_lag_ = with_zeros(std::move(event_lag_), event_lag_zeros_);
  watermark_lag_ = with_zeros(std::move(watermark_lag_), watermark_lag_zeros_);
  event_lag_zeros_ = watermark_lag_zeros_ = 0;
  report_.event_lag = event_lag_;
  report_.watermark_lag = watermark_lag_;
  report_.detection_lag = detection_lag_;
  report_.ooo_occupancy = ooo_occupancy_;

  // One deterministic per-tenant obs flush at stream close (event counts
  // and sim-time lag histograms only; no wall-clock data).
  const obs::Labels labels = {{"tenant", options_.tenant}};
  obs::counter("fa.detect.events", labels).add(report_.events);
  obs::counter("fa.detect.crash_tickets", labels).add(report_.crash_tickets);
  obs::counter("fa.detect.usage_samples", labels).add(report_.usage_samples);
  obs::counter("fa.detect.alerts", labels).add(report_.alerts.size());
  obs::counter("fa.detect.duplicates_dropped", labels)
      .add(report_.duplicates_dropped);
  obs::counter("fa.detect.late_dropped", labels).add(report_.late_dropped);
  obs::counter("fa.detect.reordered_buffered", labels)
      .add(report_.reordered_buffered);
  const auto det = obs::Stability::kDeterministic;
  obs::histogram("fa.detect.lag.event_minutes", obs::sim_lag_minutes_bounds(),
                 labels, det)
      .merge(event_lag_);
  obs::histogram("fa.detect.lag.watermark_minutes",
                 obs::sim_lag_minutes_bounds(), labels, det)
      .merge(watermark_lag_);
  obs::histogram("fa.detect.lag.detection_minutes",
                 obs::sim_lag_minutes_bounds(), labels, det)
      .merge(detection_lag_);
  obs::histogram("fa.detect.ooo.occupancy", obs::occupancy_bounds(), labels,
                 det)
      .merge(ooo_occupancy_);
}

const DetectorReport& OnlineDetector::report() const {
  require(finished_, "OnlineDetector: report() before finish()");
  return report_;
}

OnlineDetector::LiveStats OnlineDetector::live_stats() const {
  require(begun_, "OnlineDetector: live_stats() before begin()");
  LiveStats s;
  s.watermark = watermark_;
  s.arrival_high = arrival_high_;
  s.events = report_.events;
  s.tickets = report_.tickets;
  s.crash_tickets = report_.crash_tickets;
  s.usage_samples = report_.usage_samples;
  s.duplicates_dropped = report_.duplicates_dropped;
  s.reordered_buffered = report_.reordered_buffered;
  s.late_dropped = report_.late_dropped;
  s.recurrent_crashes = report_.recurrent_crashes;
  s.alerts = report_.alerts.size();
  s.ooo_pending = pending_.size();
  s.event_lag = with_zeros(event_lag_, event_lag_zeros_);
  s.watermark_lag = with_zeros(watermark_lag_, watermark_lag_zeros_);
  s.detection_lag = detection_lag_;
  s.ooo_occupancy = ooo_occupancy_;
  s.strata.reserve(rates_.size());
  const double weeks = static_cast<double>(options_.window) /
                       static_cast<double>(kMinutesPerWeek);
  for (const RateChannel& ch : rates_) {
    LiveStats::Stratum st;
    st.name = ch.name;
    st.crashes = ch.total;
    st.window_rate =
        ch.servers > 0
            ? static_cast<double>(ch.in_window.size()) /
                  (static_cast<double>(ch.servers) * weeks)
            : 0.0;
    st.alerts = ch.alerts;
    st.armed = ch.armed;
    s.strata.push_back(std::move(st));
  }
  return s;
}

}  // namespace fa::detect
