#include "src/sim/simulator.h"

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/failures.h"
#include "src/sim/fleet.h"
#include "src/sim/hazard.h"
#include "src/sim/seed_streams.h"
#include "src/sim/ticketing.h"
#include "src/sim/workload.h"
#include "src/util/error.h"

namespace fa::sim {

void simulate_to(const SimulationConfig& config, trace::TraceWriter& writer) {
  obs::Span simulate_span("sim.simulate");

  // Fleet construction stays serial (machines are cheap to draw and later
  // machines' host-box placement depends on earlier draws); every other
  // phase fans out over the thread pool with counter-based streams.
  Rng fleet_rng = stream_rng(config.seed, SeedStream::kFleet);
  Fleet fleet;
  {
    obs::Span phase("sim.build_fleet");
    fleet = build_fleet(config, fleet_rng);
    // Announce the table sizes before the first record: exact for servers
    // and the monitoring tables, the Table II budget for tickets. Power
    // events are Poisson draws and stay unannounced.
    trace::ExpectedRows expected;
    expected.servers = fleet.servers.size();
    for (const PopulationSpec& sys : config.systems) {
      expected.tickets += static_cast<std::size_t>(sys.all_tickets);
    }
    expected.weekly_usage = weekly_usage_rows(fleet);
    expected.snapshots = snapshot_rows(fleet);
    writer.expect_rows(expected);
    for (const trace::ServerRecord& s : fleet.servers) {
      const trace::ServerId assigned = writer.add_server(s);
      require(assigned == s.id, "simulate: fleet/writer id mismatch");
    }
  }
  obs::counter("fa.sim.servers").add(fleet.servers.size());

  const HazardModel hazard(config, fleet);
  std::size_t event_count = 0;
  std::vector<FailureEvent> events;
  {
    obs::Span phase("sim.generate_failures");
    events = generate_failures(config, fleet, hazard, writer);
    event_count = events.size();
  }
  std::array<int, trace::kSubsystemCount> crash_count{};
  {
    obs::Span phase("sim.emit_crash_tickets");
    crash_count = emit_crash_tickets(config, fleet, std::move(events), writer);
  }
  {
    obs::Span phase("sim.emit_background_tickets");
    emit_background_tickets(config, fleet, crash_count, writer);
  }
  {
    obs::Span phase("sim.emit_workload");
    emit_weekly_usage(config, fleet, writer);
    emit_monthly_snapshots(fleet, writer);
    emit_power_events(config, fleet, writer);
  }
  {
    obs::Span phase("sim.writer_finish");
    writer.finish();
  }

  obs::counter("fa.sim.failure_events").add(event_count);
  obs::counter("fa.sim.tickets").add(writer.ticket_count());
  for (trace::Subsystem sys = 0; sys < trace::kSubsystemCount; ++sys) {
    obs::counter("fa.sim.tickets_by_subsystem",
                 {{"subsystem", std::string(trace::subsystem_name(sys))}})
        .add(writer.ticket_count(sys));
  }
}

trace::TraceDatabase simulate(const SimulationConfig& config) {
  trace::TraceDatabase db;
  trace::DatabaseTraceWriter writer(db);
  simulate_to(config, writer);
  {
    obs::Span phase("sim.finalize");
    db.finalize();
  }
  return db;
}

}  // namespace fa::sim
