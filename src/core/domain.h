// Domain-generic scenarios for ExperimentEngine.
//
// The engine's determinism contract — a parallel batch is bitwise-identical
// to a serial one because every scenario owns its platform and Rng stream —
// is not specific to CPU DRM.  This header type-erases "one experiment run"
// behind AnyScenario/AnyResult so GPU-ENMPC frame runs, NoC sweep points,
// and thermally-constrained DRM runs are first-class batch members next to
// the original big.LITTLE scenarios:
//
//  * AnyScenario = (id, run closure).  The converting constructors from the
//    domain-typed scenario structs build closures that construct the
//    scenario's private platform (from params + noise seed) and private
//    common::Rng (from Scenario::seed) *inside the worker*, so the
//    per-scenario-ownership guarantee holds for every domain.
//  * AnyResult = (id, named scalar metrics, type-erased payload).  Metrics
//    are the machine-readable cross-domain surface (JSONL serialization,
//    bitwise determinism tests); the payload keeps the full domain result
//    (RunResult, GpuRunResult, ...) for domain-aware reporting.
//
// New domains need no engine changes: either add a scenario struct + wrapper
// here, or hand AnyScenario a custom closure directly (the closure is then
// responsible for the own-your-state determinism discipline).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/gpu_controller.h"
#include "gpu/gpu_model.h"
#include "noc/simulator.h"
#include "soc/thermal_platform.h"

namespace oal::core {

// Metric/Metrics (named scalar run outputs) live in core/experiment.h so
// Scenario::extra_metrics can name them without a circular include.

/// Standard metric set of a DRM RunResult (energy ratio only when Oracle
/// energies were recorded).  Shared by the DRM/thermal wrappers and by
/// benches that serialize Scenario-level batches.
Metrics drm_metrics(const RunResult& run);

/// Type-erased result of one scenario run.
class AnyResult {
 public:
  AnyResult() = default;

  template <typename T>
  AnyResult(std::string id, T payload, Metrics metrics)
      : AnyResult(std::in_place_type<T>, std::move(id), std::move(metrics), std::move(payload)) {}

  /// Constructs the payload T(args...) in place: no temporary payload
  /// exists next to the stored one.
  template <typename T, typename... Args>
  AnyResult(std::in_place_type_t<T>, std::string id, Metrics metrics, Args&&... args)
      : id_(std::move(id)),
        metrics_(std::move(metrics)),
        payload_(std::make_shared<const T>(std::forward<Args>(args)...)),
        type_(&typeid(T)) {}

  const std::string& id() const { return id_; }
  const Metrics& metrics() const { return metrics_; }

  /// Metric value by name; throws std::invalid_argument when absent.
  double metric(const std::string& name) const;
  bool has_metric(const std::string& name) const;

  template <typename T>
  bool holds() const {
    return type_ != nullptr && *type_ == typeid(T);
  }

  /// Domain-typed payload; throws std::logic_error on a type mismatch.
  template <typename T>
  const T& as() const {
    if (!holds<T>())
      throw std::logic_error("AnyResult::as: '" + id_ + "' does not hold the requested type");
    return *static_cast<const T*>(payload_.get());
  }

 private:
  friend class AnyScenario;  // renamed(): registry names override payload ids

  std::string id_;
  Metrics metrics_;
  std::shared_ptr<const void> payload_;
  const std::type_info* type_ = nullptr;
};

// ---------------------------------------------------------------------------
// GPU-ENMPC domain (Fig. 2 / Fig. 5 substrate).
// ---------------------------------------------------------------------------

struct GpuScenario;

/// Scenario-private execution state handed to the GPU controller factory.
struct GpuScenarioContext {
  const GpuScenario& scenario;
  gpu::GpuPlatform& platform;  ///< this scenario's platform instance
  common::Rng& rng;            ///< this scenario's deterministic stream
};

struct GpuControllerInstance {
  std::unique_ptr<GpuController> controller;
  std::shared_ptr<const void> deps;
};

using GpuControllerFactory = std::function<GpuControllerInstance(GpuScenarioContext&)>;

/// One frame-loop run: platform params x frame trace x controller factory x
/// seed, mirroring the DRM Scenario contract (private platform + Rng).
struct GpuScenario {
  std::string id;
  gpu::GpuParams platform;
  std::uint64_t platform_noise_seed = 77;
  double fps_target = 30.0;
  std::vector<gpu::FrameDescriptor> trace;
  GpuControllerFactory make_controller;
  gpu::GpuConfig initial{9, 4};
  std::uint64_t seed = 0;
  /// Runs in the worker after the trace, while the controller is alive.
  std::function<void(GpuController&, const GpuRunResult&)> on_complete;
};

// ---------------------------------------------------------------------------
// NoC domain (Section III-C sweeps).
// ---------------------------------------------------------------------------

/// One NoC design/traffic point: packet-level simulation and/or analytical
/// evaluation of a traffic matrix on a mesh.
struct NocScenario {
  std::string id;
  std::size_t mesh_cols = 8;
  std::size_t mesh_rows = 8;
  noc::NocParams params;
  noc::TrafficMatrix traffic{64};
  noc::SimConfig sim;
  bool run_simulation = true;
  bool run_analytical = true;
};

struct NocRunResult {
  noc::SimResult sim;
  noc::AnalyticalLatency analytical;
};

// ---------------------------------------------------------------------------
// Thermally-constrained DRM domain (Section III-A coupled into the DRM loop).
// ---------------------------------------------------------------------------

/// A DRM scenario executed under a thermal power budget: a scenario-private
/// soc::ThermalSocAdapter advances the RC network from the platform's power
/// trace and clamps every controller decision to the sustainable/transient
/// budget (DrmRunner arbiter/observer hooks).  The adapter's telemetry is
/// published through the runner's read-only channel, so thermal-aware
/// controllers (OnlineIlConfig::thermal_aware, thermal-aware RL) observe
/// temperatures and budget headroom; blind controllers ignore the channel
/// and stay bitwise identical to the pre-telemetry behavior.
struct ThermalDrmScenario {
  Scenario base;
  soc::ThermalConstraintParams thermal;
};

struct ThermalRunResult {
  RunResult run;
  std::size_t clamped_snippets = 0;  ///< decisions changed by the budgeter
  double peak_junction_c = 0.0;
  double peak_skin_c = 0.0;
  double final_budget_w = 0.0;
};

/// A GPU-ENMPC frame loop executed under a thermal power budget: a
/// scenario-private soc::ThermalGpuAdapter maps frame energies onto the RC
/// network's GPU + PCB nodes and clamps controller decisions to the
/// skin/junction-derived budget (GpuRunner arbiter/observer hooks).  The
/// adapter's telemetry is published through the runner's read-only channel,
/// so budget-constrained NMPC controllers (NmpcConfig::thermal_aware)
/// observe the budget they will be held to; blind controllers ignore the
/// channel and stay bitwise identical to the pre-telemetry behavior.
struct ThermalGpuScenario {
  GpuScenario base;
  soc::ThermalGpuConstraintParams thermal;
};

struct ThermalGpuRunResult {
  GpuRunResult run;
  std::size_t clamped_frames = 0;  ///< decisions changed by the budgeter
  double peak_junction_c = 0.0;
  double peak_skin_c = 0.0;
  double final_budget_w = 0.0;
};

// ---------------------------------------------------------------------------
// The type-erased scenario.
// ---------------------------------------------------------------------------

class AnyScenario {
 public:
  AnyScenario() = default;

  /// Custom-domain escape hatch: the closure must follow the engine's
  /// determinism discipline (construct all mutable state inside the call).
  AnyScenario(std::string id, std::function<AnyResult()> run);

  // Converting wrappers for the built-in domains (implicit by design so
  // mixed batches can be brace-listed).
  AnyScenario(Scenario s);            // NOLINT(google-explicit-constructor)
  AnyScenario(GpuScenario s);         // NOLINT(google-explicit-constructor)
  AnyScenario(NocScenario s);         // NOLINT(google-explicit-constructor)
  AnyScenario(ThermalDrmScenario s);  // NOLINT(google-explicit-constructor)
  AnyScenario(ThermalGpuScenario s);  // NOLINT(google-explicit-constructor)

  const std::string& id() const { return id_; }
  bool runnable() const { return static_cast<bool>(run_); }

  /// Copy under a different id; run() results carry the new id too.  This is
  /// how ScenarioRegistry imposes its catalog name on a built scenario (the
  /// same contract as build() overriding Scenario::id).
  AnyScenario renamed(std::string id) const;

  /// Executes the scenario in the calling thread.
  AnyResult run() const;

 private:
  std::string id_;
  std::function<AnyResult()> run_;
};

}  // namespace oal::core
