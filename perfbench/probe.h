// Layer probes for the repo benchmark.
//
// Everything here sits outside the library: controllers and factories are
// wrapped in forwarding adapters that time the calls into each layer's
// public functions, and the thermal adapters are wired to the runners the
// same way core/domain.cpp wires them, with timed hooks.  Wrappers forward
// every virtual call unchanged, so a wrapped run is bitwise identical to the
// library's own wiring (workloads.cpp checks this once per invocation).
//
// Untraced runs keep only the per-step timing the decide_* metrics need;
// factory, hook and scenario spans are recorded only when tracing.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/domain.h"
#include "core/experiment.h"
#include "soc/thermal_platform.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Layer spans timed at a library call boundary.
enum class Span : std::size_t {
  kIlFactory,        ///< online_il_factory: policy copy, train_offline, model bootstrap
  kIlStep,           ///< OnlineIlController::step that did not retrain
  kIlRetrain,        ///< OnlineIlController::step that retrained the policy
  kRlWarmupStep,     ///< QLearningController::step on the unrecorded warmup trace
  kRlStep,           ///< QLearningController::step on the recorded trace
  kNmpcFactory,      ///< gpu_enmpc_factory: bootstrap renders + Sobol law fit
  kNmpcStep,         ///< ExplicitNmpcGpuController::step
  kGovStep,          ///< heuristic governor step (DRM ondemand, GPU baseline)
  kThermalObserve,   ///< Thermal{Soc,Gpu}Adapter::observe
  kThermalArbitrate, ///< Thermal{Soc,Gpu}Adapter::arbitrate
  kCount
};
constexpr std::size_t kNumSpans = static_cast<std::size_t>(Span::kCount);

struct SpanTotals {
  std::array<double, kNumSpans> seconds{};
  std::array<std::size_t, kNumSpans> calls{};

  void add(Span s, double dt) {
    seconds[static_cast<std::size_t>(s)] += dt;
    calls[static_cast<std::size_t>(s)] += 1;
  }
  double seconds_of(Span s) const { return seconds[static_cast<std::size_t>(s)]; }
  std::size_t calls_of(Span s) const { return calls[static_cast<std::size_t>(s)]; }
  void merge(const SpanTotals& o);
};

/// What a wrapped controller is, which decides the spans its calls land in.
enum class Role { kOnlineIl, kRl, kNmpc, kGovernor };

/// One scenario's probe: lives on the worker's stack for the scenario run
/// and is merged into the repetition's RepProbe when the scenario ends.
struct ScenarioProbe {
  bool trace = false;
  SpanTotals spans;
  /// Step latencies (ns) of the controller under test; retraining steps
  /// are kept apart in retrain_ns.
  std::vector<double> decide_ns;
  std::vector<double> retrain_ns;
};

/// Fewest timed steps that make one scenario a decide window of its own:
/// an ENMPC arm (1800) or the online-IL arm (2475) is one, a fleet device
/// (36) is not.
constexpr std::size_t kWindowSteps = 1000;

/// Probe of one workload repetition, shared by all of its scenarios.
class RepProbe {
 public:
  explicit RepProbe(bool trace) : trace_(trace) {}
  RepProbe(const RepProbe&) = delete;
  RepProbe& operator=(const RepProbe&) = delete;

  bool trace() const { return trace_; }
  /// Thread-safe; scenario_s is the scenario's wall time (0 when untraced).
  void merge(const ScenarioProbe& p, double scenario_s);

  // Read after the batch has drained.
  const SpanTotals& spans() const { return spans_; }
  const std::vector<double>& decide_ns() const { return decide_ns_; }
  const std::vector<double>& retrain_ns() const { return retrain_ns_; }
  /// Median step latency (ns) of each scenario that timed at least
  /// kWindowSteps steps of the controller under test, in completion order.
  const std::vector<double>& window_p50_ns() const { return window_p50_ns_; }
  std::size_t scenarios() const { return scenarios_; }
  double scenario_sum_s() const { return scenario_sum_s_; }
  double scenario_max_s() const { return scenario_max_s_; }

 private:
  const bool trace_;
  std::mutex mutex_;
  SpanTotals spans_;
  std::vector<double> decide_ns_;
  std::vector<double> retrain_ns_;
  std::vector<double> window_p50_ns_;
  std::size_t scenarios_ = 0;
  double scenario_sum_s_ = 0.0;
  double scenario_max_s_ = 0.0;
};

/// Percentiles of one repetition's step latencies.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// The clock counts whole nanoseconds, so sub-microsecond steps repeat exact
/// values; each percentile is interpolated inside the 1 ns quantum that
/// holds it (the grouped-data percentile), which keeps tens-of-ns decisions
/// resolvable.  All zeros for no samples.
LatencySummary summarize(std::vector<double> ns);

/// A scenario whose body gets a fresh ScenarioProbe, merged into `rep` when
/// the body returns.  `rep` must outlive the batch that runs the scenario.
oal::core::AnyScenario probed(std::string id, RepProbe& rep,
                              std::function<oal::core::AnyResult(ScenarioProbe&)> body);

/// Wraps a factory so the controller it builds is timed into `probe`.
/// `under_test` marks the controller whose steps feed decide_*.  The
/// returned factory refers to `probe` and must not outlive it.
oal::core::ControllerFactory timed(oal::core::ControllerFactory inner, Role role, bool under_test,
                                   ScenarioProbe& probe);
oal::core::GpuControllerFactory timed(oal::core::GpuControllerFactory inner, Role role,
                                      bool under_test, ScenarioProbe& probe);

/// The controller a timed() wrapper forwards to (`ctl` itself when it is
/// not wrapped), for harvesting controller state in Scenario::on_complete.
const oal::core::DrmController& unwrap(const oal::core::DrmController& ctl);

/// The library's ThermalDrmScenario run (core/domain.cpp), rebuilt on
/// ExperimentEngine::run_scenario with a soc::ThermalSocAdapter whose hooks
/// are timed into `probe` when it traces.  Same metrics, same payload.
oal::core::AnyResult run_thermal_drm(const oal::core::Scenario& s,
                                     const oal::soc::ThermalConstraintParams& thermal,
                                     ScenarioProbe& probe);

/// The library's ThermalGpuScenario run, rebuilt on GpuRunner +
/// soc::ThermalGpuAdapter with hooks timed into `probe` when it traces.
oal::core::AnyResult run_thermal_gpu(const oal::core::GpuScenario& s,
                                     const oal::soc::ThermalGpuConstraintParams& thermal,
                                     ScenarioProbe& probe);

}  // namespace perfbench
