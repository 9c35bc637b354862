// Flat record types of the three data sources the paper joins:
// the inventory (server configuration) DB, the ticket DB, and the resource
// monitoring DB. Fields the paper reports as unavailable for PMs (disk
// capacity/count, disk/network usage) are optional and left empty by the
// simulator for PMs, so the analysis faces the same data gaps.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "src/trace/types.h"
#include "src/util/sim_time.h"

namespace fa::trace {

// Inventory DB row: one machine and its (static) configuration.
struct ServerRecord {
  ServerId id;
  MachineType type = MachineType::kPhysical;
  Subsystem subsystem = 0;

  int cpu_count = 1;       // processors (PM) / vCPUs (VM)
  double memory_gb = 1.0;  // memory size in GB
  // Disk configuration is only recorded for VMs in the paper's dataset.
  std::optional<double> disk_gb;
  std::optional<int> disk_count;

  // VMs: hosting box; PMs are stand-alone (invalid BoxId).
  BoxId host_box;

  // First occurrence in the monitoring DB; the paper's proxy for the VM
  // creation date (Section III-B). Records starting exactly at the DB begin
  // are left-censored and excluded from age analysis.
  TimePoint first_record = 0;
};

// Ticket DB row. `true_class` is simulation ground truth carried for
// classifier evaluation only; the analysis pipeline classifies from the
// description/resolution text exactly as the paper does.
//
// The text fields view bytes the row does not own. A TraceDatabase keeps
// its tickets' text in its own arena (TraceDatabase::add_ticket copies it
// in), so a row read from a database is valid as long as the database; a
// row handed to a TraceWriter or ColumnarWriter needs its text only for the
// duration of the call.
struct Ticket {
  TicketId id;
  IncidentId incident;   // tickets of one failure incident share this
  ServerId server;       // affected machine (valid for crash tickets)
  Subsystem subsystem = 0;
  bool is_crash = false;  // crash tickets vs background problem tickets
  FailureClass true_class = FailureClass::kOther;

  TimePoint opened = 0;  // failure timestamp (ticket issuing time)
  TimePoint closed = 0;  // ticket closing time; repair time = closed - opened

  std::string_view description;
  std::string_view resolution;

  Duration repair_time() const { return closed - opened; }
};

// An optional double in 8 bytes: NaN marks the absent value, so a present
// value is never NaN (the loaders refuse non-finite measurements before
// they reach a row). It answers the calls std::optional<double> answers
// for the usage fields, and converts to one.
class OptionalDouble {
 public:
  using value_type = double;

  constexpr OptionalDouble() = default;
  constexpr OptionalDouble(double v) : value_(v) {}
  constexpr OptionalDouble(const std::optional<double>& v)
      : value_(v.value_or(kAbsent)) {}

  bool has_value() const { return !std::isnan(value_); }
  explicit operator bool() const { return has_value(); }
  double operator*() const { return value_; }
  double value_or(double fallback) const {
    return has_value() ? value_ : fallback;
  }
  void reset() { value_ = kAbsent; }
  operator std::optional<double>() const {
    return has_value() ? std::optional<double>(value_) : std::nullopt;
  }

  friend bool operator==(const OptionalDouble& a, const OptionalDouble& b) {
    return a.has_value() ? b.has_value() && *a == *b : !b.has_value();
  }

 private:
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();
  double value_ = kAbsent;
};

// Monitoring DB row: weekly average resource usage for one machine.
// Disk and network usage are only collected for VMs (paper Section V-B.2).
struct WeeklyUsage {
  ServerId server;
  int week = 0;            // index within the ticket observation year
  double cpu_util = 0.0;   // [0, 100] %
  double mem_util = 0.0;   // [0, 100] %
  OptionalDouble disk_util;  // [0, 100] %
  OptionalDouble net_kbps;   // transfer volume
};

// Monitoring DB row: power-state transition reconstructed from the 15-min
// samples (the simulator stores transitions; the 15-min series can be
// expanded on demand).
struct PowerEvent {
  ServerId server;
  TimePoint at = 0;
  bool powered_on = false;  // state after the event
};

// Monitoring DB row: monthly placement snapshot for a VM; `consolidation` is
// the number of VMs on the same hosting box during that month.
struct MonthlySnapshot {
  ServerId server;
  int month = 0;  // index within the ticket observation year
  BoxId box;
  int consolidation = 1;
};

}  // namespace fa::trace
