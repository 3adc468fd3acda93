#include "core/models.h"

#include <cmath>
#include <stdexcept>

#include "ml/linreg.h"

namespace oal::core {

OnlineSocModels::OnlineSocModels(const soc::ConfigSpace& space, ml::RlsConfig rls_cfg)
    : fx_(space), time_model_(fx_.model_dim(), rls_cfg), power_model_(fx_.model_dim(), rls_cfg) {}

void OnlineSocModels::bootstrap(const std::vector<ModelSample>& samples, double ridge_alpha) {
  if (samples.empty()) throw std::invalid_argument("OnlineSocModels::bootstrap: no samples");
  std::vector<common::Vec> x;
  std::vector<double> log_tpi, log_p;
  x.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.time_s <= 0.0 || s.instructions <= 0.0 || s.power_w <= 0.0)
      throw std::invalid_argument("OnlineSocModels::bootstrap: non-positive sample");
    x.push_back(fx_.model_features(s.workload, s.config));
    log_tpi.push_back(std::log(s.time_s / s.instructions));
    log_p.push_back(std::log(s.power_w));
  }
  // The basis already contains an explicit 1.0 term, so the intercept is
  // folded into the weights (fit_intercept=false keeps dims aligned with RLS).
  ml::RidgeRegression rt(ridge_alpha), rp(ridge_alpha);
  rt.fit(x, log_tpi, /*fit_intercept=*/false);
  rp.fit(x, log_p, /*fit_intercept=*/false);
  time_model_.set_weights(rt.coefficients());
  power_model_.set_weights(rp.coefficients());
  bootstrapped_ = true;
}

double OnlineSocModels::update(const ModelSample& s) {
  common::Vec phi;
  return update(s, phi);
}

double OnlineSocModels::predict_time_s(const WorkloadFeatures& w, const soc::SocConfig& c,
                                       double instructions) const {
  return std::exp(time_model_.predict(fx_.model_features(w, c))) * instructions;
}

double OnlineSocModels::predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& c) const {
  common::Vec phi;
  return predict_power_w(w, c, phi);
}

double OnlineSocModels::predict_energy_j(const WorkloadFeatures& w, const soc::SocConfig& c,
                                         double instructions) const {
  const common::Vec phi = fx_.model_features(w, c);
  return std::exp(time_model_.predict(phi) + power_model_.predict(phi)) * instructions;
}

double OnlineSocModels::predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& c) const {
  common::Vec phi;
  return predict_log_cost(w, c, phi);
}

double OnlineSocModels::update(const ModelSample& s, common::Vec& phi) {
  if (s.time_s <= 0.0 || s.instructions <= 0.0 || s.power_w <= 0.0)
    throw std::invalid_argument("OnlineSocModels::update: non-positive sample");
  fx_.model_features_into(s.workload, s.config, phi);
  const double innovation = time_model_.update(phi, std::log(s.time_s / s.instructions));
  power_model_.update(phi, std::log(s.power_w));
  return innovation;
}

double OnlineSocModels::predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& c,
                                        common::Vec& phi) const {
  fx_.model_features_into(w, c, phi);
  return std::exp(power_model_.predict(phi));
}

double OnlineSocModels::predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& c,
                                         common::Vec& phi) const {
  fx_.model_features_into(w, c, phi);
  return time_model_.predict(phi) + power_model_.predict(phi);
}

}  // namespace oal::core
