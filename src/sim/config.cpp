#include "src/sim/config.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"

namespace fa::sim {

double MultiplierCurve::at(double x) const {
  require(edges.size() == multipliers.size() + 1,
          "MultiplierCurve: edges/multipliers size mismatch");
  if (x < edges.front()) return multipliers.front();
  if (x >= edges.back()) return multipliers.back();
  const auto it = std::upper_bound(edges.begin(), edges.end(), x);
  const auto idx = static_cast<std::size_t>(it - edges.begin()) - 1;
  return multipliers[std::min(idx, multipliers.size() - 1)];
}

double IncidentSizeSpec::expected_size() const {
  double harmonic = 0.0;
  for (int k = 1; k <= max_extra; ++k) {
    harmonic += std::pow(static_cast<double>(k), -pareto_alpha);
  }
  return 1.0 + multi_probability * harmonic;
}

SimulationConfig SimulationConfig::paper_defaults() {
  SimulationConfig c;
  c.seed = 20140623;  // DSN'14 conference date

  // ---- Table II populations and ticket volumes; Fig. 1 class mixes ----
  // Crash ticket counts derive from Table II's "% crash tickets" rows; the
  // class mixes are conditional on the ticket being classifiable (not
  // "other") and follow the Fig. 1 bars / Section III-A prose.
  // Class order: hardware, network, power, reboot, software.
  c.systems[0] = {463, 1320, 7079, 337, 151, 0.35,
                  {0.262, 0.138, 0.062, 0.231, 0.307}};
  c.systems[1] = {2025, 52, 27577, 234, 0, 0.68,
                  {0.219, 0.188, 0.125, 0.094, 0.374}};
  c.systems[2] = {1114, 1971, 50157, 592, 411, 0.68,
                  {0.063, 0.031, 0.000, 0.406, 0.500}};
  c.systems[3] = {717, 313, 8382, 69, 40, 0.61,
                  {0.128, 0.077, 0.077, 0.333, 0.385}};
  c.systems[4] = {810, 636, 25940, 488, 368, 0.29,
                  {0.085, 0.056, 0.408, 0.282, 0.169}};

  // VM crashes skew toward unexpected reboots (~35% of VM failures,
  // Section IV-C) since hosting-box reboots surface as VM reboots, while
  // PMs take the hardware-replacement tickets.
  c.pm_class_boost = {1.6, 1.3, 1.0, 0.5, 0.9};
  c.vm_class_boost = {0.15, 0.6, 1.0, 3.0, 1.0};

  // ---- Table V / Fig. 5 recurrence ----
  // Weekly recurrent probability ~= probability * P(delay <= 7 days);
  // with a 1-day LogNormal median and sigma 2.32, P(<=7d) ~ 0.8, so the
  // targets 0.22 (PM) / 0.16 (VM) give 0.275 / 0.20. The per-cause
  // same-class probabilities come from AftershockSpec's defaults (software
  // recurs as software; hardware seldom recurs as hardware -- Table III).
  c.pm_aftershock.probability = 0.275;
  c.vm_aftershock.probability = 0.155;

  // ---- Tables VI/VII incident sizes ----
  // Expected extra counts equal H_max(alpha); chosen so the per-class mean
  // sizes match Table VII (hw 1.2, net 1.5, power 2.7, reboot 1.1, sw 1.7)
  // and the overall >=2-server fraction is ~22% (Table VI). VM-rooted
  // incidents expand more readily (shared hosting boxes), PM-rooted ones
  // less, so the blended per-class means still land on Table VII while the
  // VM spatial-dependency fraction exceeds the PM one.
  c.incident_size[0] = {0.06, 1.15, 9};   // hardware  -> mean ~1.2, max 10
  c.incident_size[1] = {0.20, 1.10, 8};   // network   -> mean ~1.5, max 9
  // Power is dialed above its analytic target (0.60 * H_20(0.95) would give
  // mean ~3.5) because realized sizes shrink: pool-eligibility limits,
  // monitoring losses on wide incidents, and classifier noise all erode the
  // measured Table VII mean toward the paper's 2.7.
  c.incident_size[2] = {0.60, 0.95, 20};  // power     -> mean ~2.7, max 21
  c.incident_size[3] = {0.01, 1.25, 14};  // reboot    -> mean ~1.1, max 15
  c.incident_size[4] = {0.26, 1.00, 9};   // software  -> mean ~1.7, max 10
  c.incident_size[5] = {0.15, 1.35, 33};  // other     -> mean ~1.5, max 34
  // VM-rooted expansion tails are capped tighter than PM ones: a hosting
  // box bounds how many VMs one root cause can reach, and the small VM
  // strata (Sys IV has 40 crash tickets) would otherwise be dominated by a
  // single wide incident.
  c.incident_size_vm = c.incident_size;
  c.incident_size_vm[0] = {0.15, 1.15, 9};   // host hardware hits siblings
  c.incident_size_vm[2] = {0.55, 1.00, 12};  // rack-local power feed
  c.incident_size_vm[3] = {0.06, 1.25, 12};  // host reboot hits siblings
  c.incident_size_vm[4] = {0.36, 1.00, 9};
  c.incident_size_vm[5] = {0.24, 1.35, 12};

  // ---- Table IV repair times (mean/median hours per class) ----
  c.repair[0] = {80.10, 8.28};   // hardware
  c.repair[1] = {67.60, 8.97};   // network
  c.repair[2] = {12.17, 0.83};   // power
  c.repair[3] = {18.03, 2.27};   // reboot
  c.repair[4] = {30.00, 22.37};  // software
  c.repair[5] = {25.00, 4.00};   // other (not reported; interpolated)

  // ---- configuration samplers (population shares from Section V prose) ---
  // 72% of PMs have at most 4 processors; VMs mostly 1-2 vCPUs.
  c.pm_cpu_count = {{1, 2, 4, 8, 16, 24, 32, 64},
                    {10, 30, 32, 12, 8, 4, 3, 1}};
  c.vm_cpu_count = {{1, 2, 4, 8}, {35, 45, 15, 5}};
  c.pm_memory_gb = {{2, 4, 8, 16, 32, 64, 128, 256},
                    {8, 15, 22, 20, 15, 10, 7, 3}};
  // Most VMs carry 1-2 GB.
  c.vm_memory_gb = {{0.25, 0.5, 1, 2, 4, 8, 16, 32},
                    {4, 8, 28, 30, 15, 8, 5, 2}};
  // ~15% of VMs below 32 GB disk; the rest up to 4 TB.
  c.vm_disk_gb = {{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
                  {4, 5, 6, 15, 20, 20, 15, 8, 5, 2}};
  // 83% of failures on VMs with at most 2 disks.
  c.vm_disk_count = {{1, 2, 3, 4, 5, 6}, {30, 45, 12, 7, 4, 2}};
  // 60% of VMs turned on/off at most once per month; 14% eight times.
  c.vm_onoff_per_month = {{0, 1, 2, 4, 8}, {30, 30, 12, 14, 14}};
  // Box capacities such that the VM population across consolidation levels
  // 1..32 rises from 0.6% (level 1) to ~32% (level 32), Fig. 9: the weight
  // of capacity k is (VM share at level k) / k.
  c.box_capacity = {{1, 2, 4, 8, 16, 32}, {0.6, 1.5, 2.5, 3.0, 1.875, 1.0}};

  // ---- mean-usage mixtures (Section V-B population notes) ----
  // More than half of both populations below 10% CPU.
  c.cpu_util_mixture = {{5, 15, 25, 40, 65, 85}, {55, 20, 10, 8, 4, 3}};
  // PM memory population increases with utilization; VMs mostly <= 10%.
  c.pm_mem_util_mixture = {{5, 15, 30, 50, 70, 90}, {5, 10, 15, 20, 25, 25}};
  c.vm_mem_util_mixture = {{5, 15, 30, 50, 70, 90}, {45, 20, 15, 10, 6, 4}};
  c.vm_disk_util_mixture = {{5, 20, 40, 60, 80, 95}, {25, 25, 20, 15, 10, 5}};
  // 45% between 2-64 kbps, 34% 128-512, 21% 1024-8192.
  c.vm_net_kbps_mixture = {{4, 16, 48, 192, 384, 1536, 4096},
                           {15, 15, 15, 17, 17, 11, 10}};

  // ---- hazard multiplier curves (Figs. 7-10 shapes) ----
  // PM rate rises ~5.5x from 1 to 24 CPUs, then drops for 32/64.
  c.pm_cpu_curve = {{0, 1.5, 3, 6, 12, 20, 28, 48, 128},
                    {0.55, 0.70, 0.85, 1.40, 2.20, 3.00, 1.20, 1.10}};
  // VM rate rises ~2.5x from 1 to 8 vCPUs. All VM curves are steeper than
  // the target trends because propagated (non-root) failures land on
  // machines regardless of their own covariates and dilute the measured
  // contrast.
  c.vm_cpu_curve = {{0, 1.5, 3, 6, 16}, {0.55, 0.85, 1.55, 2.30}};
  // PM memory bathtub: high <= 4 GB, low 8-32 GB, high again at 128-256 GB.
  c.pm_mem_curve = {{0, 6, 48, 96, 192, 512}, {3.0, 1.0, 1.5, 3.5, 4.5}};
  // VM memory: flat to 4 GB, dip 4-8 GB, rise to 32 GB (~3x span).
  c.vm_mem_curve = {{0, 6, 12, 24, 64}, {1.10, 0.30, 1.30, 1.95}};
  // VM disk capacity: steep rise below 32 GB, then steady (Fig. 7c).
  c.vm_disk_cap_curve = {{0, 12, 24, 48, 8192}, {0.06, 0.30, 0.75, 1.00}};
  // VM disk count: ~10x from 1 to 6 disks (Fig. 7d).
  c.vm_disk_count_curve = {{0, 1.5, 2.5, 3.5, 4.5, 5.5, 7},
                           {0.25, 1.00, 1.60, 2.00, 2.30, 2.50}};
  // PM CPU utilization: decreasing over 0-30%, bathtub overall (Fig. 8a).
  c.pm_cpu_util_curve = {{0, 10, 20, 30, 50, 70, 100},
                         {2.00, 1.00, 0.50, 0.40, 0.60, 1.20}};
  // VM CPU utilization: increasing ~order of magnitude over 0-30%.
  c.vm_cpu_util_curve = {{0, 10, 20, 30, 50, 100},
                         {0.50, 1.20, 2.20, 2.80, 3.00}};
  // Memory utilization: inverted bathtub for both types (Fig. 8b).
  c.pm_mem_util_curve = {{0, 20, 40, 60, 70, 100},
                         {0.60, 1.50, 2.20, 1.20, 0.50}};
  c.vm_mem_util_curve = {{0, 10, 25, 40, 50, 100},
                         {0.70, 1.50, 1.80, 1.20, 0.60}};
  // VM disk utilization: mild increase 0.001 -> 0.003 (Fig. 8c).
  c.vm_disk_util_curve = {{0, 10, 30, 50, 70, 100},
                          {0.50, 0.80, 1.00, 1.20, 1.50}};
  // VM network: rise up to 64 kbps, then decline (Fig. 8d).
  c.vm_net_curve = {{0, 2, 8, 64, 512, 2048, 10000},
                    {0.15, 0.65, 2.00, 1.05, 0.55, 0.30}};
  // Consolidation: failure rate decreases with level (Fig. 9). The curve is
  // steeper than the observed trend because box-sibling incident
  // propagation partially offsets it at high consolidation.
  c.vm_consolidation_curve = {{0, 1.5, 2.5, 4.5, 8.5, 16.5, 33},
                              {3.00, 2.20, 1.60, 1.00, 0.66, 0.30}};
  // On/off: rises from 0 to ~2 per month, then no clear trend (Fig. 10).
  c.vm_onoff_curve = {{0, 0.5, 1.5, 2.5, 5, 10},
                      {0.70, 1.05, 1.60, 1.45, 1.55}};
  // Weak positive age trend, no bathtub (Fig. 6). Steeper than the target
  // trend because the at-risk population declines with age (creations are
  // spread through the window), which pulls raw failure counts down.
  c.vm_age_curve = {{0, 180, 365, 550, 800}, {0.60, 0.95, 1.35, 1.90}};

  c.vm_precreated_fraction = 0.25;
  c.usage_weekly_jitter = 5.0;
  c.monitoring_loss_min_size = 10;
  c.monitoring_loss_probability = 0.10;
  return c;
}

SimulationConfig SimulationConfig::scaled(double factor) const {
  require(factor > 0.0, "SimulationConfig::scaled: factor must be > 0");
  SimulationConfig c = *this;
  const auto scale = [factor](int n) {
    if (n == 0) return 0;
    return std::max(1, static_cast<int>(std::lround(n * factor)));
  };
  for (auto& sys : c.systems) {
    sys.pm_count = scale(sys.pm_count);
    sys.vm_count = scale(sys.vm_count);
    sys.all_tickets = scale(sys.all_tickets);
    sys.pm_crash_tickets =
        sys.pm_crash_tickets == 0 ? 0 : scale(sys.pm_crash_tickets);
    sys.vm_crash_tickets =
        sys.vm_crash_tickets == 0 ? 0 : scale(sys.vm_crash_tickets);
  }
  return c;
}

}  // namespace fa::sim
