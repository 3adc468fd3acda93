// DRM experiment runner.
//
// Executes a snippet trace on the platform under a controller, recording per
// snippet: the applied configuration, the controller's bare-policy decision
// (if any), the Oracle configuration and both energies.  The benches derive
// every row of Table II and every curve of Figs. 3-4 from these records.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller.h"
#include "core/decision_timer.h"
#include "core/objectives.h"
#include "core/oracle.h"
#include "soc/platform.h"

namespace oal::core {

struct SnippetRecord {
  std::size_t index = 0;
  std::uint32_t app_id = 0;
  double start_time_s = 0.0;   ///< wall-clock time at snippet start
  soc::SocConfig applied;
  std::optional<soc::SocConfig> policy_decision;
  soc::SocConfig oracle;
  double energy_j = 0.0;        ///< measured energy at the applied config
  double oracle_energy_j = 0.0; ///< ground-truth energy at the Oracle config
  double exec_time_s = 0.0;
};

struct RunResult {
  std::vector<SnippetRecord> records;
  /// Wall-clock latency of the controller's step() calls, timed by the
  /// runner around exactly the decision (model update + policy inference +
  /// candidate search — not platform execution or Oracle computation).
  DecisionLatencyStats decision_latency;

  double total_energy_j() const;
  double oracle_energy_j() const;
  double total_time_s() const;
  /// Total energy normalized to the Oracle (the metric of Table II / Fig. 4).
  double energy_ratio() const;
  /// Energy ratio restricted to snippets of one app.
  double energy_ratio_for_app(std::uint32_t app_id) const;

  /// Fraction of records in [begin, end) whose policy decision matches the
  /// Oracle on the big-cluster frequency (the Fig. 3 metric).  Records with
  /// no policy decision fall back to the applied configuration.
  double big_freq_accuracy(std::size_t begin, std::size_t end, int tolerance_steps = 0) const;
};

/// Hook invoked before each snippet executes; may veto/clamp the pending
/// configuration (the controller's decision, or the initial config for the
/// first snippet) — e.g. thermal power budgeting.  The returned config is
/// what actually executes and is recorded as `applied`.
using ConfigArbiter =
    std::function<soc::SocConfig(const soc::SnippetDescriptor&, const soc::SocConfig&)>;

/// Hook observing each executed snippet (applied config + measured result) —
/// e.g. advancing a thermal model from the power trace.
using SnippetObserver = std::function<void(const soc::SnippetDescriptor&, const soc::SocConfig&,
                                           const soc::SnippetResult&)>;

/// Read-only channel publishing the current thermal state (temperatures +
/// power budget) to the controller before each decision.  Sampled after the
/// observer hook, so the controller sees the state the just-executed snippet
/// produced.  Must be side-effect free: blind controllers ignore the
/// snapshot and their runs stay bitwise identical with or without it.
using ThermalTelemetrySource = std::function<soc::ThermalTelemetry()>;

struct RunnerOptions {
  Objective objective = Objective::kEnergy;
  bool compute_oracle = true;  ///< disable for speed when ratios are not needed
  /// Optional shared memoization of the exhaustive Oracle search (see
  /// core::OracleCache; keyed by platform params + snippet + objective).
  std::shared_ptr<OracleCache> oracle_cache;
  ConfigArbiter arbiter;    ///< empty = controller decisions apply verbatim
  SnippetObserver observer; ///< empty = no per-snippet observation
  ThermalTelemetrySource telemetry;  ///< empty = controllers run thermally blind
};

class DrmRunner {
 public:
  DrmRunner(soc::BigLittlePlatform& platform, RunnerOptions opts = {});

  RunResult run(const std::vector<soc::SnippetDescriptor>& trace, DrmController& controller,
                const soc::SocConfig& initial);

 private:
  soc::BigLittlePlatform* platform_;
  RunnerOptions opts_;
};

}  // namespace oal::core
