// Thermal budgeting for the big.LITTLE DRM loop and the GPU frame loop
// (paper Section III-A, after Bhat et al.: "the power budget is used as a
// metric to throttle the frequency and number of operating cores").
//
// ThermalBudgetCore is the budgeter both loops share.  It advances a compact
// RC network from a per-node power shape with temperature-dependent leakage
// feedback, periodically recomputes the power budget through a
// thermal::PowerBudgeter built once per core (transient headroom over a
// configurable horizon, or the steady-state sustainable power), tracks the
// peak junction and skin temperatures, and publishes a telemetry snapshot.
//
// Two thin adapters plug the core into the runners' arbiter/observer hooks.
// Each owns only its throttle ladder and its mapping from executed work to
// the power shape:
//   - ThermalSocAdapter (DrmRunner): big cluster, little cluster, and
//     DRAM+uncore on the PCB node; throttles big frequency first, then big
//     cores, then little frequency, then little cores (floor: 1 LITTLE core
//     at minimum frequency).
//   - ThermalGpuAdapter (GpuRunner): GPU node, and CPU+uncore+DRAM on the
//     PCB node; throttles frequency first, then slices (floor: 1 slice at
//     minimum frequency).
//
// Any controller runs unmodified under a budget.  The budgeter consults
// only the platforms' deterministic power models (the simulator stand-in
// for a power-meter feedback loop), never measurement noise, so runs stay
// bitwise reproducible.
#pragma once

#include <cstddef>
#include <utility>

#include "gpu/gpu_model.h"
#include "soc/platform.h"
#include "soc/thermal_telemetry.h"
#include "thermal/fixed_point.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"

namespace oal::soc {

/// Budget settings both adapters share.  Each adapter's params type below
/// supplies its own leakage default.
struct ThermalBudgetParams {
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
  thermal::LeakageModel leakage;

 protected:
  explicit ThermalBudgetParams(thermal::LeakageModel default_leakage)
      : leakage(std::move(default_leakage)) {}
};

/// Thermal constraints for the DRM loop: big-cluster-heavy leakage.
struct ThermalConstraintParams : ThermalBudgetParams {
  ThermalConstraintParams()
      : ThermalBudgetParams({{0.35, 0.08, 0.25, 0.0, 0.0}, {0.025, 0.02, 0.025, 0.0, 0.0}, 25.0}) {}
};

/// Thermal constraints for the GPU frame loop (ENMPC under a skin budget):
/// GPU-heavy leakage.
struct ThermalGpuConstraintParams : ThermalBudgetParams {
  ThermalGpuConstraintParams()
      : ThermalBudgetParams({{0.05, 0.03, 0.30, 0.0, 0.0}, {0.02, 0.02, 0.03, 0.0, 0.0}, 25.0}) {}
};

/// The RC network, budgeter, budget cadence, peaks and telemetry both
/// adapters share.  An adapter writes the per-node power of each executed
/// snippet or frame into shape_w() and calls advance().
class ThermalBudgetCore {
 public:
  /// Validates the settings against the mobile-SoC RC network (`who` names
  /// the adapter in error messages), sets the starting temperatures and
  /// computes the first budget from `nominal_shape_w`, the per-node power
  /// shape assumed until the first observation.  Throws
  /// std::invalid_argument on a node-vector size mismatch, a skin node
  /// outside the network, or a non-finite ambient, starting temperature,
  /// horizon or budget interval.
  ThermalBudgetCore(const char* who, ThermalBudgetParams params, common::Vec nominal_shape_w);

  /// Per-node power shape (W) that the next advance() injects.
  common::Vec& shape_w() { return shape_w_; }

  /// Steps the RC network by dt_s under shape_w() plus leakage at the
  /// current temperatures, tracks the peaks, and refreshes the budget once
  /// budget_interval_s of simulated time has passed since the last refresh.
  void advance(double dt_s);

  double budget_w() const { return budget_w_; }
  double peak_junction_c() const { return peak_junction_c_; }
  double peak_skin_c() const { return peak_skin_c_; }
  const thermal::RcThermalNetwork& network() const { return net_; }

  /// Read-only snapshot of the current thermal state: the junction is the
  /// hottest die node (every node but skin and PCB).  Side-effect free, so
  /// publishing it never perturbs a run.
  ThermalTelemetry telemetry() const;

 private:
  double hottest_die_c() const;
  void refresh_budget();
  void track_peaks();

  ThermalBudgetParams params_;
  thermal::RcThermalNetwork net_;
  /// Factored once at construction; budget refreshes are arithmetic only.
  thermal::PowerBudgeter budgeter_;
  common::Vec shape_w_;  ///< last observed per-node power shape
  common::Vec leak_w_;   ///< advance() scratch: leakage at the current temperatures
  common::Vec power_w_;  ///< advance() scratch: shape + leakage fed to the network
  double budget_w_ = 0.0;
  double since_budget_s_ = 0.0;
  double peak_junction_c_ = 0.0;
  double peak_skin_c_ = 0.0;
};

/// One step down the firmware throttle ladder: big frequency first, then
/// big cores, then little frequency, then little cores.  Returns false at
/// the floor (1 LITTLE core at minimum frequency).  Shared by the budget
/// arbiter and by thermal-aware controllers that internalize it (they must
/// descend the *same* ladder or their proposals diverge from what the
/// arbiter would grant).
bool throttle_step(SocConfig& c);

/// DrmRunner-facing thermal budgeter: maps each executed snippet's power
/// breakdown onto the core and clamps proposed SocConfigs that the
/// platform's power model predicts would exceed the budget.
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

  double budget_w() const { return core_.budget_w(); }
  std::size_t clamped_snippets() const { return clamped_; }
  double peak_junction_c() const { return core_.peak_junction_c(); }
  double peak_skin_c() const { return core_.peak_skin_c(); }
  const thermal::RcThermalNetwork& network() const { return core_.network(); }

  /// The core's telemetry snapshot, for the runner's read-only channel.
  ThermalTelemetry telemetry() const { return core_.telemetry(); }

 private:
  BigLittlePlatform* platform_;
  std::size_t clamped_ = 0;
  ThermalBudgetCore core_;
};

/// One step down the GPU firmware throttle ladder: frequency first (fast,
/// cheap actuation), then slice gating.  Returns false at the floor (1 slice
/// at minimum frequency).  Shared by the budget arbiter and by the
/// budget-aware NMPC fallback (mirroring soc::throttle_step on the DRM
/// side): both must descend the *same* ladder or the controller's proposals
/// diverge from what the arbiter would grant.
bool gpu_throttle_step(gpu::GpuConfig& c);

/// GpuRunner-facing thermal budgeter: maps each rendered frame's energies
/// onto the core's GPU and PCB nodes and clamps proposed GpuConfigs whose
/// producer-side power would exceed the budget.
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

  double budget_w() const { return core_.budget_w(); }
  std::size_t clamped_frames() const { return clamped_; }
  double peak_junction_c() const { return core_.peak_junction_c(); }
  double peak_skin_c() const { return core_.peak_skin_c(); }
  const thermal::RcThermalNetwork& network() const { return core_.network(); }

  /// The core's telemetry snapshot, for the runner's read-only channel.
  ThermalTelemetry telemetry() const { return core_.telemetry(); }

 private:
  gpu::GpuPlatform* platform_;
  double period_s_;
  std::size_t clamped_ = 0;
  ThermalBudgetCore core_;
};

}  // namespace oal::soc
