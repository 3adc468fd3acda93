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

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

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
  /// configuration crossed with workload features (see ModelBasis).
  /// Targets are log(time per instruction) and log(power), which are close
  /// to linear in this basis.
  common::Vec model_features(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;
  /// model_features into a caller-reused buffer: evaluates the four
  /// ModelBasis blocks at `candidate` only and gathers them, so single
  /// configurations (model bootstrap, the by-value predictors) skip the
  /// tabulation.
  void model_features_into(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                           common::Vec& out) const;
  std::size_t model_dim() const;

 private:
  soc::ConfigSpace space_;
  bool thermal_aware_ = false;
};

/// The online models' 23-term basis phi(w, c) for one workload, tabulated
/// per knob value.  Every term depends on the candidate through at most one
/// key, so the terms fall into four blocks:
///   * workload — 1, mpki, bmpki, pf, mem_ai, ext_per_inst (one row);
///   * little   — log f_l, mpki f_l, f_l, f_l^2, pf log f_l (a row per
///                LITTLE frequency);
///   * big      — log f_b, big-on flag, mpki f_b, f_b, f_b^2, pf log f_b (a
///                row per big frequency, plus the all-zero "big off" row);
///   * cores    — pf width, n_l, n_b, w_eff, pf w_eff, pf / w_eff (a row per
///                (n_l, n_b); w_eff and width depend on n_l + n_b only).
/// build() evaluates each block once per key value (~60 values instead of
/// 23 terms per candidate); phi(w, c) is then a gather, and theta' phi(w, c)
/// a sum over a weigh_into() copy of the table that carries both models'
/// products.  The block formulas in features.cpp are the basis's only
/// definition: FeatureExtractor::model_features_into evaluates the same
/// blocks at one configuration and gathers them through the same term map.
class ModelBasis {
 public:
  static constexpr std::size_t kDim = 23;
  enum Block : std::uint8_t { kWorkload, kLittle, kBig, kCores, kBlocks };
  /// Terms per row of each block.
  static constexpr std::uint32_t kWidth[kBlocks] = {6, 5, 6, 6};
  /// Term j of phi(w, c) is slot kTerms[j].slot of its block's row.
  struct Term {
    Block block;
    std::uint8_t slot;
  };
  static constexpr Term kTerms[kDim] = {
      {kWorkload, 0},  //  0: 1
      {kLittle, 0},    //  1: log f_l
      {kBig, 0},       //  2: log f_b
      {kBig, 1},       //  3: big on
      {kWorkload, 1},  //  4: mpki
      {kLittle, 1},    //  5: mpki f_l
      {kBig, 2},       //  6: mpki f_b
      {kWorkload, 2},  //  7: bmpki
      {kWorkload, 3},  //  8: pf
      {kCores, 0},     //  9: pf width
      {kCores, 1},     // 10: n_l
      {kCores, 2},     // 11: n_b
      {kLittle, 2},    // 12: f_l
      {kBig, 3},       // 13: f_b
      {kLittle, 3},    // 14: f_l^2
      {kBig, 4},       // 15: f_b^2
      {kLittle, 4},    // 16: pf log f_l
      {kBig, 5},       // 17: pf log f_b
      {kWorkload, 4},  // 18: mem_ai
      {kWorkload, 5},  // 19: ext_per_inst
      {kCores, 3},     // 20: w_eff
      {kCores, 4},     // 21: pf w_eff
      {kCores, 5},     // 22: pf / max(w_eff, 1)
  };

  /// Start of each block's row for one configuration.
  struct Rows {
    std::uint32_t start[kBlocks];
  };

  /// Sizes the table for `space` and tabulates its frequencies (GHz) and
  /// their logs, which do not depend on the workload.
  explicit ModelBasis(const soc::ConfigSpace& space);

  /// Tabulates every block for workload `w`; allocation-free.
  void build(const WorkloadFeatures& w);

  /// Where configuration c's terms sit; throws std::invalid_argument if c
  /// is not a valid configuration.
  Rows rows(const soc::SocConfig& c) const {
    if (!space_.valid(c)) throw std::invalid_argument("ModelBasis::rows: invalid configuration");
    const std::size_t little_row = static_cast<std::size_t>(c.little_freq_idx);
    const std::size_t big_row =
        c.num_big >= 1 ? static_cast<std::size_t>(c.big_freq_idx) : space_.big_freqs().size();
    const std::size_t cores_row = static_cast<std::size_t>(
        (c.num_little - 1) * (soc::ConfigSpace::kMaxBigCores + 1) + c.num_big);
    return {{0, static_cast<std::uint32_t>(kWidth[kWorkload] + kWidth[kLittle] * little_row),
             static_cast<std::uint32_t>(big_start_ + kWidth[kBig] * big_row),
             static_cast<std::uint32_t>(cores_start_ + kWidth[kCores] * cores_row)}};
  }

  /// phi(w, c) gathered into `out` (resized to kDim).
  void phi_into(const Rows& r, common::Vec& out) const;

  /// `out` = the table with every entry v of term j replaced by the pair
  /// (theta_a[j] * v, theta_b[j] * v); same layout as the table (entry i at
  /// out[2i], out[2i + 1]), so rows() indexes it too.
  void weigh_into(const common::Vec& theta_a, const common::Vec& theta_b,
                  std::vector<double>& out) const;

  /// (theta_a' phi(w, c), theta_b' phi(w, c)) from a weigh_into() table.
  /// Each sum adds its kDim products in ascending j starting from 0.0,
  /// exactly as common::dot(theta, phi) does, so both are bitwise equal to
  /// it; the pairs sit side by side so one load feeds both sums.
  static std::pair<double, double> sum(const std::vector<double>& weighed, const Rows& r) {
    const double* t = weighed.data();
    double a = 0.0, b = 0.0;
#pragma GCC unroll 23
    for (std::size_t j = 0; j < kDim; ++j) {
      const std::size_t i = r.start[kTerms[j].block] + kTerms[j].slot;
      a += t[2 * i];
      b += t[2 * i + 1];
    }
    return {a, b};
  }

 private:
  soc::ConfigSpace space_;                       ///< by value, as in FeatureExtractor
  std::vector<double> little_ghz_, little_log_;  ///< per LITTLE level: f_l, log f_l
  std::vector<double> big_ghz_, big_log_;        ///< per big level: f_b, log f_b
  std::size_t big_start_ = 0;    ///< first big row (the "big off" row is last)
  std::size_t cores_start_ = 0;  ///< first cores row, (n_l - 1, n_b) row-major
  std::vector<double> table_;    ///< workload row | little rows | big rows | cores rows
};

}  // namespace oal::core
