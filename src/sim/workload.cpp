#include "src/sim/workload.h"

#include <algorithm>
#include <cmath>

#include "src/sim/seed_streams.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::sim {
namespace {

double clamp_util(double v) { return std::clamp(v, 0.1, 100.0); }

// Servers are rendered in parallel blocks and committed serially after each
// block, so peak memory is one block of rows even when the writer streams
// to disk. Streams are keyed by server id: block size cannot affect output.
constexpr std::size_t kServerBlock = 4096;

// The monitoring tables' visibility rule: a machine has a row for every
// period of the ticket year that ends after its first record. Returns the
// first such period of `periods` periods of `length` minutes (`periods`
// when none); the rows run from it to the end of the year.
int first_visible(const trace::ServerRecord& s, Duration length,
                  int periods) {
  const Duration since = s.first_record - ticket_window().begin;
  if (since < 0) return 0;
  return static_cast<int>(std::min<Duration>(since / length, periods));
}

// Usage rows cover weeks [first_usage_week(s), week_count()).
int first_usage_week(const trace::ServerRecord& s) {
  return first_visible(s, kMinutesPerWeek, ticket_window().week_count());
}

// Snapshots cover months [first_snapshot_month(s), month_count()); VMs
// only, so a PM's range is empty.
int first_snapshot_month(const trace::ServerRecord& s) {
  const int months = ticket_window().month_count();
  if (s.type != trace::MachineType::kVirtual) return months;
  return first_visible(s, kMinutesPerMonth, months);
}

}  // namespace

std::size_t weekly_usage_rows(const Fleet& fleet) {
  const int weeks = ticket_window().week_count();
  std::size_t rows = 0;
  for (const trace::ServerRecord& s : fleet.servers) {
    rows += static_cast<std::size_t>(weeks - first_usage_week(s));
  }
  return rows;
}

std::size_t snapshot_rows(const Fleet& fleet) {
  const int months = ticket_window().month_count();
  std::size_t rows = 0;
  for (const trace::ServerRecord& s : fleet.servers) {
    rows += static_cast<std::size_t>(months - first_snapshot_month(s));
  }
  return rows;
}

void emit_weekly_usage(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer) {
  const ObservationWindow year = ticket_window();
  const int weeks = year.week_count();
  // One stream per server: usage synthesis is embarrassingly parallel, and
  // rows are committed in server order so the table layout is unchanged.
  std::vector<std::vector<trace::WeeklyUsage>> rows(
      std::min(kServerBlock, fleet.servers.size()));
  for (std::size_t block = 0; block < fleet.servers.size();
       block += kServerBlock) {
    const std::size_t n = std::min(kServerBlock, fleet.servers.size() - block);
    parallel_for(n, [&](std::size_t j) {
      const std::size_t i = block + j;
      const trace::ServerRecord& s = fleet.servers[i];
      const MachineProfile& p = fleet.profiles[i];
      rows[j].clear();
      Rng rng = stream_rng(config.seed, SeedStream::kWeeklyUsage,
                           static_cast<std::uint64_t>(s.id.value));
      for (int w = first_usage_week(s); w < weeks; ++w) {
        trace::WeeklyUsage u;
        u.server = s.id;
        u.week = w;
        u.cpu_util = clamp_util(
            p.mean_cpu_util + rng.normal(0.0, config.usage_weekly_jitter));
        u.mem_util = clamp_util(
            p.mean_mem_util + rng.normal(0.0, config.usage_weekly_jitter));
        if (p.mean_disk_util) {
          u.disk_util = clamp_util(*p.mean_disk_util +
                                   rng.normal(0.0, config.usage_weekly_jitter));
        }
        if (p.mean_net_kbps) {
          // Network volume jitter is multiplicative (volumes span decades).
          u.net_kbps = *p.mean_net_kbps * std::exp(rng.normal(0.0, 0.25));
        }
        rows[j].push_back(u);
      }
    });
    for (std::size_t j = 0; j < n; ++j) writer.add_weekly_usage_rows(rows[j]);
  }
}

void emit_monthly_snapshots(const Fleet& fleet, trace::TraceWriter& writer) {
  const ObservationWindow year = ticket_window();
  const int months = year.month_count();
  std::vector<trace::MonthlySnapshot> rows;
  for (std::size_t i = 0; i < fleet.servers.size(); ++i) {
    const trace::ServerRecord& s = fleet.servers[i];
    const MachineProfile& p = fleet.profiles[i];
    rows.clear();
    for (int m = first_snapshot_month(s); m < months; ++m) {
      rows.push_back({s.id, m, s.host_box, p.consolidation});
    }
    writer.add_monthly_snapshots(rows);
  }
}

void emit_power_events(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer) {
  const ObservationWindow window = onoff_window();
  const double window_months =
      static_cast<double>(window.length()) / kMinutesPerMonth;
  std::vector<std::vector<trace::PowerEvent>> rows(
      std::min(kServerBlock, fleet.servers.size()));
  for (std::size_t block = 0; block < fleet.servers.size();
       block += kServerBlock) {
    const std::size_t n = std::min(kServerBlock, fleet.servers.size() - block);
    parallel_for(n, [&](std::size_t j) {
      const std::size_t i = block + j;
      rows[j].clear();
      const trace::ServerRecord& s = fleet.servers[i];
      if (s.type != trace::MachineType::kVirtual) return;
      const MachineProfile& p = fleet.profiles[i];
      if (p.onoff_per_month <= 0.0) return;
      Rng rng = stream_rng(config.seed, SeedStream::kPowerEvents,
                           static_cast<std::uint64_t>(s.id.value));

      const auto cycles = rng.poisson(p.onoff_per_month * window_months);
      if (cycles == 0) return;

      // Draw cycle start times, sort, and emit non-overlapping off/on pairs.
      std::vector<TimePoint> starts;
      starts.reserve(cycles);
      for (std::uint64_t c = 0; c < cycles; ++c) {
        starts.push_back(window.begin +
                         static_cast<Duration>(rng.uniform(
                             0.0, static_cast<double>(window.length() - 1))));
      }
      std::sort(starts.begin(), starts.end());
      TimePoint busy_until = window.begin;
      for (TimePoint off_at : starts) {
        if (off_at < busy_until) continue;  // overlapping cycle; drop
        // Downtime: LogNormal around 2 hours.
        const double down_minutes = 120.0 * std::exp(rng.normal(0.0, 1.0));
        const TimePoint on_at =
            off_at + std::max<Duration>(kMinutesPerSample,
                                        static_cast<Duration>(down_minutes));
        if (on_at >= window.end) break;
        rows[j].push_back({s.id, off_at, false});
        rows[j].push_back({s.id, on_at, true});
        busy_until = on_at;
      }
    });
    for (std::size_t j = 0; j < n; ++j) writer.add_power_events(rows[j]);
  }
}

}  // namespace fa::sim
