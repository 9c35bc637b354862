#include "src/sim/ticketing.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "src/sim/seed_streams.h"
#include "src/stats/lognormal.h"
#include "src/text/ticket_text.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::sim {
namespace {

// Parallel render blocks are committed serially after each block, so peak
// memory is one block of rendered tickets even when the writer streams to
// disk. Stream ids stay global indexes: block size cannot affect output.
constexpr std::size_t kRenderBlock = 8192;

stats::LogNormal repair_distribution(const RepairSpec& spec) {
  return stats::LogNormal::from_mean_median(spec.mean_hours,
                                            spec.median_hours);
}

}  // namespace

std::array<int, trace::kSubsystemCount> emit_crash_tickets(
    const SimulationConfig& config, const Fleet& fleet,
    std::vector<FailureEvent> events, trace::TraceWriter& writer) {
  // Serial planning pass over the (time-sorted) events: distinct servers per
  // incident decide monitoring-loss eligibility, and an incident's first
  // event is exempt from loss.
  std::unordered_map<trace::IncidentId,
                     std::unordered_set<trace::ServerId>>
      incident_servers;
  for (const FailureEvent& e : events) {
    incident_servers[e.incident].insert(e.server);
  }
  std::unordered_set<trace::IncidentId> incident_seen;
  std::vector<bool> first_of_incident(events.size());
  std::vector<bool> loss_eligible(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    first_of_incident[i] = incident_seen.insert(events[i].incident).second;
    loss_eligible[i] =
        !first_of_incident[i] &&
        static_cast<int>(incident_servers[events[i].incident].size()) >=
            config.monitoring_loss_min_size;
  }

  std::vector<stats::LogNormal> repair;
  repair.reserve(trace::kFailureClassCount);
  for (const auto& spec : config.repair) {
    repair.push_back(repair_distribution(spec));
  }

  // Parallel rendering in blocks: each failure event renders its ticket (or
  // its monitoring loss) from a private stream into its own slot, then the
  // block commits serially — ticket ids follow event order, as before. The
  // slots own their text buffers and are reused from block to block; the
  // sink copies what it keeps while the commit runs.
  std::array<int, trace::kSubsystemCount> crash_count{};
  std::vector<trace::Ticket> rendered(std::min(kRenderBlock, events.size()));
  std::vector<text::TicketText> texts(rendered.size());
  std::vector<char> filed(rendered.size());
  for (std::size_t block = 0; block < events.size(); block += kRenderBlock) {
    const std::size_t n = std::min(kRenderBlock, events.size() - block);
    parallel_for(n, [&](std::size_t j) {
      const std::size_t i = block + j;
      const FailureEvent& e = events[i];
      Rng rng = stream_rng(config.seed, SeedStream::kCrashTicket, i);
      filed[j] = !(loss_eligible[i] &&
                   rng.bernoulli(config.monitoring_loss_probability));
      // A lost ticket: the monitoring server itself was down, so the ticket
      // was never filed.
      if (!filed[j]) return;

      trace::Ticket& t = rendered[j];
      t.incident = e.incident;
      t.server = e.server;
      t.subsystem = fleet.server(e.server).subsystem;
      t.is_crash = true;
      t.true_class = e.recorded_class;
      t.opened = e.at;
      // Repair effort follows the true cause; a vaguely-written ticket still
      // took however long its real problem took to fix. The down time also
      // includes the (short) queueing interval before the repair starts.
      const double queue_hours =
          config.queueing.median_hours *
          std::exp(config.queueing.sigma * rng.normal());
      const double repair_hours =
          repair[static_cast<std::size_t>(e.cause_class)].sample(rng);
      t.closed = e.at +
                 std::max<Duration>(1, from_hours(queue_hours + repair_hours));
      text::TicketText& text = texts[j];
      text::generate_crash_text(e.recorded_class, config.text_style, rng,
                                text.description, text.resolution);
      t.description = text.description;
      t.resolution = text.resolution;
    });
    // Compact the block (monitoring losses leave holes) and commit it as one
    // batch, letting the sink encode columns in parallel. Ticket ids still
    // follow event order: batches are committed serially, holes skipped.
    // A ticket moved into a hole still views its own slot's text.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!filed[j]) continue;
      ++crash_count[rendered[j].subsystem];
      if (j != kept) std::swap(rendered[kept], rendered[j]);
      ++kept;
    }
    writer.add_tickets(std::span(rendered.data(), kept));
  }
  return crash_count;
}

void emit_background_tickets(
    const SimulationConfig& config, const Fleet& fleet,
    const std::array<int, trace::kSubsystemCount>& crash_count,
    trace::TraceWriter& writer) {
  // Index servers per subsystem for cheap random targeting.
  std::array<std::vector<trace::ServerId>, trace::kSubsystemCount> by_system;
  for (const trace::ServerRecord& s : fleet.servers) {
    by_system[s.subsystem].push_back(s.id);
  }

  // Flatten the per-subsystem ticket budget into one global index space so
  // every background ticket owns a stable stream id.
  struct Slot {
    trace::Subsystem sys;
  };
  std::vector<Slot> slots;
  for (trace::Subsystem sys = 0; sys < trace::kSubsystemCount; ++sys) {
    const int remaining = config.systems[sys].all_tickets - crash_count[sys];
    require(!by_system[sys].empty() || remaining <= 0,
            "emit_background_tickets: subsystem without servers");
    for (int i = 0; i < remaining; ++i) slots.push_back({sys});
  }

  const ObservationWindow year = ticket_window();
  const auto background_repair =
      stats::LogNormal::from_mean_median(48.0, 8.0);

  // Reused render slots with their own text buffers, as in
  // emit_crash_tickets; every field but the id (which the writer assigns)
  // is set anew for each ticket.
  std::vector<trace::Ticket> rendered(std::min(kRenderBlock, slots.size()));
  std::vector<text::TicketText> texts(rendered.size());
  for (std::size_t block = 0; block < slots.size(); block += kRenderBlock) {
    const std::size_t n = std::min(kRenderBlock, slots.size() - block);
    parallel_for(n, [&](std::size_t j) {
      const std::size_t i = block + j;
      const trace::Subsystem sys = slots[i].sys;
      Rng rng = stream_rng(config.seed, SeedStream::kBackgroundTicket, i);
      trace::Ticket& t = rendered[j];
      t.server = by_system[sys][static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(by_system[sys].size()) - 1))];
      t.subsystem = sys;
      t.is_crash = false;
      t.true_class = trace::FailureClass::kOther;
      t.opened =
          year.begin + static_cast<Duration>(rng.uniform(
                           0.0, static_cast<double>(year.length() - 1)));
      t.closed =
          t.opened + std::max<Duration>(
                         1, from_hours(background_repair.sample(rng)));
      text::TicketText& text = texts[j];
      text::generate_background_text(rng, text.description, text.resolution);
      t.description = text.description;
      t.resolution = text.resolution;
    });
    writer.add_tickets(std::span(rendered.data(), n));
  }
}

}  // namespace fa::sim
