// Event-stream emitter: replays a trace as a timestamp-ordered feed.
//
// The simulator's tables are grouped by kind (crash tickets, background
// tickets, weekly usage); a live ingestion service sees one interleaved
// stream instead. emit_stream() merges tickets and usage samples into
// trace::StreamSink deliveries sorted by timestamp (deterministic
// tie-breaks), optionally warping ticket times through a scripted hazard
// timeline so failure *rates* shift at known instants — the ground truth
// the online detector (src/detect/) is scored against.
//
// The warp is a measure-preserving monotone remap of the ticket window:
// with piecewise-constant relative intensity r(t) (1.0 until the first
// shift), an original timestamp at window fraction u moves to the point
// where the normalized integral of r reaches u. Total ticket counts are
// unchanged; the local event rate after the remap is proportional to r, so
// a `factor = 4` shift at time T multiplies the observed failure rate at T
// by 4 while everything else about the trace (classes, servers, repair
// durations, aftershock structure) is preserved. Repair durations ride
// along: closed = warped opened + original repair time.
#pragma once

#include <vector>

#include "src/trace/database.h"
#include "src/trace/event_stream.h"
#include "src/util/sim_time.h"

namespace fa::sim {

// One scripted hazard change: from `at` onward the relative failure
// intensity is `factor` (absolute, not cumulative — the timeline is the
// step function of the most recent shift, 1.0 before the first).
struct HazardShift {
  TimePoint at = 0;
  double factor = 1.0;
};

// Stream-replay scenario: the scripted hazard timeline plus emitter knobs.
struct StreamScenario {
  // Must be sorted by `at`, each strictly inside the ticket window and with
  // factor > 0; empty = stationary replay (no warp at all).
  std::vector<HazardShift> shifts;

  // Stop the feed early (tenant disconnect mid-window): when set to a point
  // inside the window, events at or after the cutoff are not delivered and
  // finish() reports the cutoff as stream end. 0 = full window.
  TimePoint cutoff = 0;

  // The ground-truth change log the detector is scored against: the shift
  // instants where the factor actually changes value.
  std::vector<TimePoint> change_points() const;
};

// Replays `db` (finalized) into `sink` as a merged, timestamp-ordered
// event stream: begin(meta), every ticket opened in [window.begin, stream
// end) and every weekly usage sample available before the stream end,
// finish(end). A ticket opened before the window is dropped, as the batch
// summaries skip it: the stream, like the detector's watermark, starts at
// window.begin. A ticket's `at` is its (warped) opening time; week w's
// usage sample is available at the end of the week, window.begin + (w + 1)
// weeks, clamped into the window. Delivery order is total: by `at`,
// tickets before usage samples, tickets by id, usage samples by server,
// then week. A ticket whose server is not in the inventory (finalize()
// allows that for background tickets) is delivered with the default
// machine type, so StreamEvent::machine_type is meaningful only for
// tickets with a server. A delivered ticket's text views `db`'s rows
// (trace::StreamTicket). Deterministic and serial; for T tickets and U
// usage rows the cost is O(T + U): a stable LSD radix sort of the tickets
// by time, a walk of one cursor per server over its week-ordered usage
// rows, one week at a time, and one merge.
void emit_stream(const trace::TraceDatabase& db,
                 const StreamScenario& scenario, trace::StreamSink& sink);

// The warped timestamp of `t` under the scenario timeline within `window`
// (identity outside the window or with no shifts). Exposed for tests.
TimePoint warp_time(const StreamScenario& scenario,
                    const ObservationWindow& window, TimePoint t);

}  // namespace fa::sim
