// Simulation configuration, calibrated to the statistics the paper reports.
//
// Anchors (see DESIGN.md for the full derivation):
//   * populations and per-system crash/background ticket volumes: Table II;
//   * per-system, per-class crash mixes (incl. the "other" share): Fig. 1 and
//     Section III-A prose;
//   * recurrence (aftershock) intensity: Table V / Fig. 5;
//   * incident-size distributions per class: Tables VI and VII;
//   * repair-time LogNormals: Table IV (solved exactly from mean/median);
//   * covariate hazard multipliers: the trends of Figs. 7-10.
//
// The paper's own aggregates are not perfectly mutually consistent (e.g. the
// Fig. 2 "All" rates vs. Table II ticket counts vs. Table V random
// probabilities); we anchor event *counts* on Table II and recurrence on
// Table V, and record the residual deviations in EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/text/ticket_text.h"
#include "src/trace/types.h"

namespace fa::sim {

// A discrete distribution over configuration values (e.g. CPU counts).
struct DiscreteSpec {
  std::vector<double> values;
  std::vector<double> weights;  // unnormalized
};

// Piecewise-constant hazard multiplier over attribute ranges: multiplier[i]
// applies to attribute values in [edges[i], edges[i+1]).
struct MultiplierCurve {
  std::vector<double> edges;
  std::vector<double> multipliers;

  double at(double x) const;
};

// Per-(subsystem, machine-type) failure volume targets.
struct PopulationSpec {
  int pm_count = 0;
  int vm_count = 0;
  int all_tickets = 0;       // crash + background problem tickets
  int pm_crash_tickets = 0;  // target crash tickets on PMs
  int vm_crash_tickets = 0;  // target crash tickets on VMs
  // Probability that a crash ticket is written too vaguely to classify
  // (recorded as "other"); Fig. 1 reports 35%/68%/68%/61%/29%.
  double other_fraction = 0.5;
  // Root-cause mix over the five real classes (hardware, network, power,
  // reboot, software), conditioned on the ticket being classifiable.
  std::array<double, 5> class_mix = {0.2, 0.2, 0.2, 0.2, 0.2};
};

// Aftershock (recurrent-failure) process: after each server failure, with
// probability `probability` the same server fails again after a LogNormal
// delay; the chain continues geometrically.
struct AftershockSpec {
  double probability = 0.2;
  double delay_median_minutes = 1440.0;  // 1 day
  double delay_sigma = 2.32;             // log-scale sigma
  // Probability the follow-up keeps the same root-cause class, per cause
  // (hardware, network, power, reboot, software). Software problems recur
  // as software (Table III: short same-class gaps), while a repaired disk
  // rarely fails again soon (long same-class gaps for hw/net/power).
  std::array<double, 5> same_class_probability = {0.1, 0.1, 0.15, 0.5, 0.7};
};

// Incident spatial expansion for one failure class. When an incident is
// "multi", the number of extra affected servers follows a discretized Pareto
// clamped to [1, max_extra]; P(extra = k) = k^-alpha - (k+1)^-alpha, with the
// tail mass on max_extra. The expected extra count is then the generalized
// harmonic number H_{max_extra}(alpha), which calibration exploits.
struct IncidentSizeSpec {
  double multi_probability = 0.1;  // P(incident affects >= 2 servers)
  double pareto_alpha = 1.2;       // tail index of the extra-server count
  int max_extra = 9;               // cap on extra servers

  // E[total servers per incident] = 1 + multi_probability * H(alpha).
  double expected_size() const;
};

struct RepairSpec {
  double mean_hours = 10.0;
  double median_hours = 2.0;
};

// Ticket queueing delay before the repair starts (Section IV-C: down time
// includes a usually-short queueing interval). Added to every crash repair.
struct QueueingSpec {
  double median_hours = 0.25;
  double sigma = 0.8;  // log-scale sigma of the LogNormal delay
};

struct SimulationConfig {
  std::uint64_t seed = 42;

  std::array<PopulationSpec, trace::kSubsystemCount> systems;

  // Machine-type modifiers applied to the class mix: VMs see relatively more
  // unexpected reboots (hosting-box reboots), PMs more hardware failures.
  std::array<double, 5> pm_class_boost = {1.0, 1.0, 1.0, 1.0, 1.0};
  std::array<double, 5> vm_class_boost = {1.0, 1.0, 1.0, 1.0, 1.0};

  AftershockSpec pm_aftershock;
  AftershockSpec vm_aftershock;

  // Indexed by FailureClass (including kOther). Incidents rooted on VMs
  // expand more readily (host-level causes take down co-hosted VMs), which
  // is what drives the paper's higher spatial dependency for VMs
  // (Table VI: 26% vs 16%).
  std::array<IncidentSizeSpec, trace::kFailureClassCount> incident_size;
  std::array<IncidentSizeSpec, trace::kFailureClassCount> incident_size_vm;
  QueueingSpec queueing;

  const IncidentSizeSpec& incident_size_for(trace::MachineType root_type,
                                            trace::FailureClass cls) const {
    const auto idx = static_cast<std::size_t>(cls);
    return root_type == trace::MachineType::kVirtual ? incident_size_vm[idx]
                                                     : incident_size[idx];
  }
  std::array<RepairSpec, trace::kFailureClassCount> repair;

  // ---- configuration samplers ----
  DiscreteSpec pm_cpu_count;
  DiscreteSpec vm_cpu_count;
  DiscreteSpec pm_memory_gb;
  DiscreteSpec vm_memory_gb;
  DiscreteSpec vm_disk_gb;
  DiscreteSpec vm_disk_count;
  // Average monthly on/off frequency classes for VMs.
  DiscreteSpec vm_onoff_per_month;
  // Box capacity classes (max consolidation level of the hosting box).
  DiscreteSpec box_capacity;

  // ---- mean-usage samplers (percent; network in kbps) ----
  DiscreteSpec cpu_util_mixture;     // both types
  DiscreteSpec pm_mem_util_mixture;  // PMs skew higher (Section V-B.1)
  DiscreteSpec vm_mem_util_mixture;
  DiscreteSpec vm_disk_util_mixture;
  DiscreteSpec vm_net_kbps_mixture;

  // ---- hazard multiplier curves (Figs. 7-10 trends) ----
  MultiplierCurve pm_cpu_curve;
  MultiplierCurve vm_cpu_curve;
  MultiplierCurve pm_mem_curve;
  MultiplierCurve vm_mem_curve;
  MultiplierCurve vm_disk_cap_curve;
  MultiplierCurve vm_disk_count_curve;
  MultiplierCurve pm_cpu_util_curve;
  MultiplierCurve vm_cpu_util_curve;
  MultiplierCurve pm_mem_util_curve;
  MultiplierCurve vm_mem_util_curve;
  MultiplierCurve vm_disk_util_curve;
  MultiplierCurve vm_net_curve;
  MultiplierCurve vm_consolidation_curve;
  MultiplierCurve vm_onoff_curve;
  // Weak positive VM age trend (Fig. 6): multiplier vs age in days.
  MultiplierCurve vm_age_curve;

  // Fraction of VMs created before the monitoring DB begins (left-censored
  // ages; the paper keeps ~75% of VMs after filtering).
  double vm_precreated_fraction = 0.25;

  // Weekly usage AR(1)-style jitter around each machine's mean (stddev in
  // percentage points / relative for network).
  double usage_weekly_jitter = 5.0;

  // Tickets in large incidents can be lost when the incident takes down the
  // monitoring server itself (Section IV-E: 48 of ~2300 tickets).
  int monitoring_loss_min_size = 10;
  double monitoring_loss_probability = 0.10;

  // Multipliers on the primary-incident counts compensating systematic
  // generative-vs-analytic mismatches: aftershock-chain truncation at the
  // window end, monitoring losses, propagation pools limited by eligibility
  // (VM creation dates) -- all of which vary with each stratum's class mix.
  // Fitted empirically against the Table II crash targets.
  std::array<double, trace::kSubsystemCount> pm_calibration_boost = {
      1.10, 1.22, 1.26, 0.95, 1.20};
  std::array<double, trace::kSubsystemCount> vm_calibration_boost = {
      0.92, 1.00, 1.03, 1.00, 1.05};

  fa::text::TextStyleOptions text_style;

  // Returns the paper-calibrated default configuration.
  static SimulationConfig paper_defaults();

  // A proportionally scaled copy (populations and ticket volumes scaled by
  // `factor`): shrunk for fast tests, grown (factor > 1) for out-of-core
  // scale runs.
  SimulationConfig scaled(double factor) const;
};

}  // namespace fa::sim
