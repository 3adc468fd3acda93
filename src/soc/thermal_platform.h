// Thermally-constrained big.LITTLE platform adapter (paper Section III-A,
// after Bhat et al.: "the power budget is used as a metric to throttle the
// frequency and number of operating cores").
//
// ThermalSocAdapter couples the thermal/ layer into the DRM hot path: it
// advances a compact RC network from the platform's per-snippet power
// breakdown (big cluster, little cluster, DRAM+uncore on the PCB node) with
// temperature-dependent leakage feedback, periodically recomputes the power
// budget through a thermal::PowerBudgeter built once per adapter (transient
// headroom over a configurable horizon, or the steady-state sustainable
// power), and clamps proposed SocConfigs that the platform's power model
// predicts would exceed it.
// Throttling order mirrors a firmware budgeter: big frequency first, then
// big cores, then little frequency, then little cores (floor: 1 LITTLE core
// at minimum frequency).
//
// The adapter plugs into DrmRunner through the arbiter/observer hooks, so
// any DrmController runs unmodified under a thermal budget; the budgeter
// consults only the platform's deterministic power model (the simulator
// stand-in for a power-meter feedback loop), never measurement noise, so
// runs stay bitwise reproducible.
#pragma once

#include <cstddef>

#include "gpu/gpu_model.h"
#include "soc/platform.h"
#include "soc/thermal_telemetry.h"
#include "thermal/fixed_point.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"

namespace oal::soc {

struct ThermalConstraintParams {
  thermal::PowerBudgetConfig limits;  ///< junction/skin limits + skin node
  /// Horizon for transient_power_headroom; <= 0 switches to the steady-state
  /// max_sustainable_power budget.
  double horizon_s = 10.0;
  /// Simulated-time cadence of budget recomputation.
  double budget_interval_s = 0.5;
  double ambient_c = 25.0;
  /// Starting temperatures (deg C) per RC node; empty = ambient everywhere.
  /// Preheating (e.g. a device already hot from prior load) makes short
  /// traces thermally binding.
  common::Vec initial_temperature_c;
  /// Temperature-dependent leakage injected on top of the platform's power
  /// (node order: big, little, gpu, pcb, skin).
  thermal::LeakageModel leakage{{0.35, 0.08, 0.25, 0.0, 0.0},
                                {0.025, 0.02, 0.025, 0.0, 0.0},
                                25.0};
};

/// One step down the firmware throttle ladder: big frequency first, then
/// big cores, then little frequency, then little cores.  Returns false at
/// the floor (1 LITTLE core at minimum frequency).  Shared by the budget
/// arbiter and by thermal-aware controllers that internalize it (they must
/// descend the *same* ladder or their proposals diverge from what the
/// arbiter would grant).
bool throttle_step(SocConfig& c);

class ThermalSocAdapter {
 public:
  explicit ThermalSocAdapter(BigLittlePlatform& platform, ThermalConstraintParams params = {});

  /// Clamps a proposed configuration to the current power budget (DrmRunner
  /// arbiter).  Counts a clamp when the returned config differs.
  SocConfig arbitrate(const SnippetDescriptor& s, const SocConfig& proposed);

  /// Advances the RC network by the executed snippet's time under its power
  /// breakdown + leakage, and refreshes the budget on the configured cadence
  /// (DrmRunner observer).
  void observe(const SnippetDescriptor& s, const SocConfig& applied, const SnippetResult& r);

  double budget_w() const { return budget_w_; }
  std::size_t clamped_snippets() const { return clamped_; }
  double peak_junction_c() const { return peak_junction_c_; }
  double peak_skin_c() const { return peak_skin_c_; }
  const thermal::RcThermalNetwork& network() const { return net_; }

  /// Read-only snapshot of the current thermal state for the runner's
  /// telemetry channel (temperatures, limits, budget, last observed power).
  /// Side-effect free, so publishing it never perturbs a run.
  ThermalTelemetry telemetry() const;

 private:
  void refresh_budget();
  void track_peaks();

  BigLittlePlatform* platform_;
  ThermalConstraintParams params_;
  thermal::RcThermalNetwork net_;
  /// Factored once at construction; budget refreshes are arithmetic only.
  thermal::PowerBudgeter budgeter_;
  common::Vec shape_w_;  ///< last observed per-node power shape
  common::Vec leak_w_;   ///< observe() scratch: leakage at the current temperatures
  common::Vec power_w_;  ///< observe() scratch: shape + leakage fed to the network
  double budget_w_ = 0.0;
  double since_budget_s_ = 0.0;
  std::size_t clamped_ = 0;
  double peak_junction_c_ = 0.0;
  double peak_skin_c_ = 0.0;
};

/// Thermal constraints for the GPU frame loop (ENMPC under a skin budget).
/// Shares the RC network/budget machinery with the DRM adapter; the power
/// injection maps the GPU platform's per-frame energies onto the RC
/// network's GPU node (finally exercising it) and the PCB node (CPU +
/// uncore + DRAM producer side).
struct ThermalGpuConstraintParams {
  thermal::PowerBudgetConfig limits;  ///< junction/skin limits + skin node
  /// Horizon for transient_power_headroom; <= 0 switches to the steady-state
  /// max_sustainable_power budget.
  double horizon_s = 10.0;
  /// Simulated-time cadence of budget recomputation.
  double budget_interval_s = 0.5;
  double ambient_c = 25.0;
  /// Starting temperatures (deg C) per RC node; empty = ambient everywhere.
  common::Vec initial_temperature_c;
  /// Temperature-dependent leakage injected on top of the platform's power
  /// (node order: big, little, gpu, pcb, skin) — GPU-heavy by default.
  thermal::LeakageModel leakage{{0.05, 0.03, 0.30, 0.0, 0.0},
                                {0.02, 0.02, 0.03, 0.0, 0.0},
                                25.0};
};

/// One step down the GPU firmware throttle ladder: frequency first (fast,
/// cheap actuation), then slice gating.  Returns false at the floor (1 slice
/// at minimum frequency).  Shared by the budget arbiter and by the
/// budget-aware NMPC fallback (mirroring soc::throttle_step on the DRM
/// side): both must descend the *same* ladder or the controller's proposals
/// diverge from what the arbiter would grant.
bool gpu_throttle_step(gpu::GpuConfig& c);

/// GpuRunner-facing thermal budgeter: clamps proposed GpuConfigs to the
/// current power budget (frequency first, then slices; floor: 1 slice at
/// minimum frequency) and advances the RC network from rendered frames.
/// Plugs into GpuRunner through its arbiter/observer hooks, mirroring the
/// DRM adapter's contract: budgeting consults only the platform's
/// deterministic ideal model, so runs stay bitwise reproducible.
class ThermalGpuAdapter {
 public:
  ThermalGpuAdapter(gpu::GpuPlatform& platform, double period_s,
                    ThermalGpuConstraintParams params = {});

  /// Clamps a proposed configuration to the current power budget (GpuRunner
  /// arbiter).  Counts a clamp when the returned config differs.
  gpu::GpuConfig arbitrate(const gpu::FrameDescriptor& f, const gpu::GpuConfig& proposed);

  /// Advances the RC network by one frame period under the frame's measured
  /// energies + leakage, refreshing the budget on the configured cadence
  /// (GpuRunner observer).
  void observe(const gpu::FrameDescriptor& f, const gpu::GpuConfig& applied,
               const gpu::FrameResult& r);

  double budget_w() const { return budget_w_; }
  std::size_t clamped_frames() const { return clamped_; }
  double peak_junction_c() const { return peak_junction_c_; }
  double peak_skin_c() const { return peak_skin_c_; }
  const thermal::RcThermalNetwork& network() const { return net_; }

  /// Read-only snapshot of the current thermal state for the runner's
  /// telemetry channel (temperatures, limits, budget, last observed power).
  /// Side-effect free, so publishing it never perturbs a run.
  ThermalTelemetry telemetry() const;

 private:
  void refresh_budget();
  void track_peaks();

  gpu::GpuPlatform* platform_;
  double period_s_;
  ThermalGpuConstraintParams params_;
  thermal::RcThermalNetwork net_;
  /// Factored once at construction; budget refreshes are arithmetic only.
  thermal::PowerBudgeter budgeter_;
  common::Vec shape_w_;  ///< last observed per-node power shape
  common::Vec leak_w_;   ///< observe() scratch: leakage at the current temperatures
  common::Vec power_w_;  ///< observe() scratch: shape + leakage fed to the network
  double budget_w_ = 0.0;
  double since_budget_s_ = 0.0;
  std::size_t clamped_ = 0;
  double peak_junction_c_ = 0.0;
  double peak_skin_c_ = 0.0;
};

}  // namespace oal::soc
