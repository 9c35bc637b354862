// Every number the paper reports, as typed constants. Used by the simulator
// calibration tests and by fa_repro to print paper-vs-measured
// comparisons. Values marked "approx" are read off figures rather than
// stated in text/tables.
#pragma once

#include <array>

#include "src/trace/types.h"

namespace fa::paperref {

// ---- Table II: dataset statistics ----
struct SystemStats {
  int pms;
  int vms;
  int all_tickets;
  double crash_ticket_fraction;  // of all tickets
  double crash_pm_share;         // of crash tickets
  double crash_vm_share;
};

inline constexpr std::array<SystemStats, trace::kSubsystemCount> kTable2 = {{
    {463, 1320, 7079, 0.069, 0.69, 0.31},
    {2025, 52, 27577, 0.0085, 1.00, 0.00},
    {1114, 1971, 50157, 0.02, 0.59, 0.41},
    {717, 313, 8382, 0.013, 0.63, 0.37},
    {810, 636, 25940, 0.033, 0.57, 0.43},
}};

inline constexpr int kTotalPms = 5129;
inline constexpr int kTotalVms = 4292;
inline constexpr int kTotalCrashTickets = 2759;

// ---- Fig. 1 / Section III-A: "other" (unclassifiable) ticket shares ----
inline constexpr double kOtherShareOverall = 0.53;
inline constexpr std::array<double, trace::kSubsystemCount> kOtherShare = {
    0.35, 0.68, 0.68, 0.61, 0.29};
// Share of all crash tickets attributed to software + reboot together.
inline constexpr double kSoftwareRebootShare = 0.31;
// k-means classification accuracy against manual labels.
inline constexpr double kClassificationAccuracy = 0.87;

// ---- Fig. 2: weekly failure rates (approx from figure) ----
inline constexpr double kWeeklyRatePmAll = 0.005;
inline constexpr double kWeeklyRateVmAll = 0.003;

// ---- Fig. 3: inter-failure times ----
// Both PM and VM inter-failure times are best fit by Gamma; VM mean is
// stated in the text.
inline constexpr double kVmInterfailureMeanDays = 37.22;
// Roughly 60% of failing VMs fail only once (Section IV-B).
inline constexpr double kVmSingleFailureShare = 0.60;

// ---- Table III: inter-failure times by class, days ----
// Order: hardware, network, power, reboot, software, other.
struct MeanMedian {
  double mean;
  double median;
};
inline constexpr std::array<MeanMedian, 6> kTable3Operator = {{
    {9.21, 3.61},
    {10.27, 5.22},
    {7.60, 1.00},
    {3.63, 0.51},
    {2.84, 0.32},
    {1.12, 0.24},
}};
inline constexpr std::array<MeanMedian, 6> kTable3SingleServer = {{
    {59.46, 39.85},
    {65.68, 45.22},
    {57.60, 10.03},
    {54.59, 26.94},
    {21.58, 8.00},
    {30.01, 8.99},
}};

// ---- Fig. 4: repair times (hours), LogNormal best fit ----
inline constexpr double kRepairMeanPmHours = 38.5;
inline constexpr double kRepairMeanVmHours = 19.6;
// ~35% of VM failures are unexpected reboots (explains the shorter repairs).
inline constexpr double kVmRebootShare = 0.35;

// ---- Table IV: repair times by class, hours (hw, net, power, reboot, sw) --
inline constexpr std::array<MeanMedian, 5> kTable4 = {{
    {80.10, 8.28},
    {67.60, 8.97},
    {12.17, 0.83},
    {18.03, 2.27},
    {30.00, 22.37},
}};

// ---- Fig. 5: recurrent failure probabilities (approx from figure) ----
inline constexpr double kRecurrentDayPm = 0.13;
inline constexpr double kRecurrentWeekPm = 0.22;   // also Table V
inline constexpr double kRecurrentMonthPm = 0.31;
inline constexpr double kRecurrentDayVm = 0.09;
inline constexpr double kRecurrentWeekVm = 0.16;   // also Table V
inline constexpr double kRecurrentMonthVm = 0.24;

// ---- Table V: weekly random vs recurrent probabilities ----
struct RandomRecurrent {
  double random;
  double recurrent;
  double ratio;  // as printed in the paper
};
// Index 0 = All, then Sys I..V.
inline constexpr std::array<RandomRecurrent, 6> kTable5Pm = {{
    {0.0062, 0.22, 35.5},
    {0.015, 0.16, 10.7},
    {0.0020, 0.09, 45.0},
    {0.0090, 0.33, 36.7},
    {0.0028, 0.07, 25.0},
    {0.0086, 0.19, 10.5},
}};
inline constexpr std::array<RandomRecurrent, 6> kTable5Vm = {{
    {0.0038, 0.16, 42.1},
    {0.0023, 0.11, 47.8},
    {0.0, 0.0, 0.0},
    {0.0030, 0.20, 66.7},
    {0.0032, 0.10, 31.3},
    {0.0094, 0.14, 16.7},
}};

// ---- Table VI: % incidents involving 0 / 1 / >= 2 servers ----
struct IncidentShare {
  double zero;
  double one;
  double two_or_more;
};
inline constexpr IncidentShare kTable6All = {0.0, 0.78, 0.22};
inline constexpr IncidentShare kTable6PmOnly = {0.62, 0.30, 0.08};
inline constexpr IncidentShare kTable6VmOnly = {0.32, 0.57, 0.11};
// Derived dependency fractions quoted in the text.
inline constexpr double kVmDependencyFraction = 0.26;  // 11/(57+11) approx
inline constexpr double kPmDependencyFraction = 0.16;  // 8/(30+8) approx

// ---- Table VII: servers per incident by class (hw, net, power, reboot, sw)
struct IncidentSize {
  double mean;
  int max;
};
inline constexpr std::array<IncidentSize, 5> kTable7 = {{
    {1.2, 10},
    {1.5, 9},
    {2.7, 21},
    {1.1, 15},
    {1.7, 10},
}};
inline constexpr IncidentSize kTable7Other = {1.46, 34};

// ---- Fig. 6: VM age ----
// ~75% of VMs have an observable creation date.
inline constexpr double kVmObservableAgeShare = 0.75;

// ---- Fig. 7: capacity impact factors (max/min average failure rate) ----
inline constexpr double kPmCpuFactor = 5.5;
inline constexpr double kVmCpuFactor = 2.5;
inline constexpr double kPmMemFactor = 5.0;
inline constexpr double kVmMemFactor = 3.0;
inline constexpr double kVmDiskCountFactor = 10.0;
// VM disk capacity: rate rises from 0.00029 (8 GB) to ~0.0025 (>= 32 GB).
inline constexpr double kVmDiskCapLowRate = 0.00029;
inline constexpr double kVmDiskCapHighRate = 0.0025;

// ---- Fig. 10: on/off population shares ----
inline constexpr double kOnOffAtMostOncePerMonth = 0.60;
inline constexpr double kOnOffEightPerMonth = 0.14;

}  // namespace fa::paperref
