// Feature extraction from Table-I performance counters.
//
// Two feature views are derived from the same counters:
//  * policy features — the state vector fed to IL/RL policies;
//  * model features  — the regressors of the online RLS power/performance
//    models, parameterized by a *candidate* configuration so the models can
//    score configurations that were not executed (paper Section IV-A3:
//    counters observed at the current configuration are reused to
//    approximate other configurations).
#pragma once

#include <utility>

#include "common/matrix.h"
#include "soc/config_space.h"
#include "soc/counters.h"
#include "soc/thermal_telemetry.h"

namespace oal::core {

/// Configuration-independent workload summary computed from counters.
struct WorkloadFeatures {
  double mpki = 0.0;          ///< L2 misses per kilo-instruction
  double bmpki = 0.0;         ///< branch mispredicts per kilo-instruction
  double mem_ai = 0.0;        ///< data memory accesses per instruction
  double ext_per_inst = 0.0;  ///< external memory requests per instruction
  double pf_proxy = 0.0;      ///< estimated parallel fraction in [0, 1]
  double cpi_obs = 0.0;       ///< observed cycles per instruction
  double runnable = 1.0;      ///< average run-queue depth (>= 1)
};

WorkloadFeatures workload_features(const soc::PerfCounters& k, const soc::SocConfig& c);

class FeatureExtractor {
 public:
  /// Stores the (small) configuration space by value, so extractors never
  /// dangle when constructed from a temporary space.  `thermal_aware`
  /// appends thermal-telemetry features to the policy state; the default
  /// (blind) extractor emits bitwise-identical vectors to the pre-telemetry
  /// pipeline, so existing policies and datasets are unaffected.
  explicit FeatureExtractor(soc::ConfigSpace space = {}, bool thermal_aware = false)
      : space_(std::move(space)), thermal_aware_(thermal_aware) {}

  /// Policy state: workload features + normalized current-config knobs.
  /// When thermal-aware, also: junction/skin proximity to their throttle
  /// limits and normalized budget headroom (neutral telemetry — the default
  /// argument — encodes a cool, unconstrained device).
  common::Vec policy_features(const soc::PerfCounters& k, const soc::SocConfig& current,
                              const soc::ThermalTelemetry& telemetry = {}) const;
  /// Allocation-free variant: writes the same state into `out`, which keeps
  /// its capacity across calls — zero steady-state heap traffic once it has
  /// grown to policy_dim().
  void policy_features_into(const soc::PerfCounters& k, const soc::SocConfig& current,
                            common::Vec& out, const soc::ThermalTelemetry& telemetry = {}) const;
  std::size_t policy_dim() const { return thermal_aware_ ? 12 + kThermalDims : 12; }
  bool thermal_aware() const { return thermal_aware_; }

  /// Thermal features appended to the policy state in thermal-aware mode.
  static constexpr std::size_t kThermalDims = 3;

  /// Regressors for the online models: smooth functions of the candidate
  /// configuration crossed with workload features.  Targets are log(time per
  /// instruction) and log(power), which are close to linear in this basis.
  common::Vec model_features(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;
  /// Allocation-free variant of model_features into a caller-reused buffer —
  /// the per-candidate hot path of the online-IL neighborhood sweep and the
  /// NMPC solvers.
  void model_features_into(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                           common::Vec& out) const;
  std::size_t model_dim() const;

 private:
  soc::ConfigSpace space_;
  bool thermal_aware_ = false;
};

}  // namespace oal::core
