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

class OnlineSocModels {
 public:
  OnlineSocModels(const soc::ConfigSpace& space, ml::RlsConfig rls_cfg = {0.995, 10.0, 0.0});

  /// Ridge-fits initial weights from offline samples and seeds the RLS.
  void bootstrap(const std::vector<ModelSample>& samples, double ridge_alpha = 1e-4);

  /// One online adaptation step from an executed snippet.  Returns the
  /// a-priori innovation of the time model in log space (|e| of 0.1 means
  /// roughly a 10% relative time mis-prediction) — a cheap workload-change
  /// detector for the controller.
  double update(const ModelSample& observed);

  double predict_time_s(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                        double instructions) const;
  double predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;
  double predict_energy_j(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                          double instructions) const;
  /// log(t/I) + log(P): monotone in predicted energy; cheaper for argmin.
  double predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& candidate) const;

  /// Scratch overloads, which the by-value forms wrap: the feature basis is
  /// built into the caller-owned phi buffer — the online-IL candidate loop
  /// calls these hundreds of times per decision and reuses one buffer.
  double update(const ModelSample& observed, common::Vec& phi);
  double predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                         common::Vec& phi) const;
  double predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& candidate,
                          common::Vec& phi) const;

  bool bootstrapped() const { return bootstrapped_; }
  std::size_t online_updates() const { return time_model_.updates(); }

 private:
  FeatureExtractor fx_;
  ml::RecursiveLeastSquares time_model_;   // target: log(time per instruction)
  ml::RecursiveLeastSquares power_model_;  // target: log(power)
  bool bootstrapped_ = false;
};

}  // namespace oal::core
