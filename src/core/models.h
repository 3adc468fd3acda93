// Online power & performance models (paper Sections III-B and IV-A3).
//
// Linear-in-parameters models over the FeatureExtractor basis, trained by
// recursive least squares with forgetting:
//   log(time per instruction) = theta_t' phi(w, c)
//   log(total power)          = theta_p' phi(w, c)
// where w are workload features from the *observed* counters and c is any
// candidate configuration.  Initial weights are bootstrapped offline with
// ridge regression on design-time data, then adapted online after every
// snippet — exactly the paper's "models constructed offline ... updated
// continuously at runtime" loop.  Predicted energy of a candidate is
// exp(log t + log P) * instructions.
//
// Per decision, the basis is not rebuilt per candidate: DecisionBasis holds
// the observed workload's ModelBasis tables (one row per knob value) and the
// two models' products theta[j] * phi_j over them, so scoring a candidate is
// a gather of 23 product pairs, summed in common::dot's order.
#pragma once

#include <vector>

#include "core/features.h"
#include "ml/rls.h"
#include "soc/config_space.h"
#include "soc/counters.h"

namespace oal::core {

struct ModelSample {
  WorkloadFeatures workload;
  soc::SocConfig config;
  double time_s = 0.0;
  double instructions = 0.0;
  double power_w = 0.0;
};

/// One decision's scoring tables.  The online-IL decision scores a few
/// hundred candidates against the same observed workload, yet the basis has
/// only ~60 distinct per-knob values for it; so OnlineSocModels::update
/// tabulates the ModelBasis of the observed workload once, gathers the
/// update's own phi from it, and after the RLS step forms the product pairs
/// (theta_t[j] * phi_j, theta_p[j] * phi_j) over every row.  A candidate is
/// then two 23-term sums, bitwise equal to the by-value predictors (same
/// products, added in the same ascending order from 0.0).
class DecisionBasis {
 public:
  explicit DecisionBasis(const soc::ConfigSpace& space) : basis_(space) {}

  struct Score {
    double log_time;   ///< predicted log(time per instruction)
    double log_power;  ///< predicted log(power)
  };
  /// Both models at candidate c: log_time + log_power is predict_log_cost,
  /// exp(log_power) predict_power_w.
  Score score(const soc::SocConfig& c) const {
    const auto [log_time, log_power] = ModelBasis::sum(products_, basis_.rows(c));
    return {log_time, log_power};
  }

 private:
  friend class OnlineSocModels;
  ModelBasis basis_;
  /// (theta_t[j] phi_j, theta_p[j] phi_j) per basis entry (weigh_into).
  std::vector<double> products_;
  common::Vec phi_;  ///< the update sample's phi
};

class OnlineSocModels {
 public:
  OnlineSocModels(const soc::ConfigSpace& space, ml::RlsConfig rls_cfg = {0.995, 10.0, 0.0});

  /// Ridge-fits initial weights from offline samples and seeds the RLS.
  /// Throws std::invalid_argument (models untouched) on any sample with a
  /// non-positive or non-finite time, instruction count or power, or a
  /// non-finite workload feature.
  void bootstrap(const std::vector<ModelSample>& samples, double ridge_alpha = 1e-4);

  /// One online adaptation step from an executed snippet.  Returns the
  /// a-priori innovation of the time model in log space (|e| of 0.1 means
  /// roughly a 10% relative time mis-prediction) — a cheap workload-change
  /// detector for the controller.  Rejects the samples bootstrap rejects,
  /// leaving the models untouched.
  double update(const ModelSample& observed);
  /// The same step for one decision: builds `d` for observed.workload,
  /// updates from the phi gathered out of it, then forms d's product tables
  /// from the updated weights.  Allocation-free once `d` has been used.
  double update(const ModelSample& observed, DecisionBasis& d);

  double predict_time_s(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                        double instructions) const;
  double predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;
  double predict_energy_j(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                          double instructions) const;
  /// log(t/I) + log(P): monotone in predicted energy; cheaper for argmin.
  double predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;

  bool bootstrapped() const { return bootstrapped_; }
  std::size_t online_updates() const { return time_model_.updates(); }

 private:
  /// Both RLS steps from validated targets.
  double fit(double log_tpi, double log_p, const common::Vec& phi);

  FeatureExtractor fx_;
  ml::RecursiveLeastSquares time_model_;   // target: log(time per instruction)
  ml::RecursiveLeastSquares power_model_;  // target: log(power)
  ml::RecursiveLeastSquares::Scratch rls_scratch_;  // shared by both updates
  bool bootstrapped_ = false;
};

}  // namespace oal::core
