#include "core/models.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/linreg.h"

namespace oal::core {

namespace {

struct Targets {
  double log_tpi;  ///< log(time per instruction)
  double log_p;    ///< log(power)
};

bool finite(const WorkloadFeatures& w) {
  return std::isfinite(w.mpki) && std::isfinite(w.bmpki) && std::isfinite(w.mem_ai) &&
         std::isfinite(w.ext_per_inst) && std::isfinite(w.pf_proxy) && std::isfinite(w.cpi_obs) &&
         std::isfinite(w.runnable);
}

/// The regression targets of a sample, or std::invalid_argument.  A NaN
/// would pass a plain `<= 0.0` test, and a NaN or Inf target or feature
/// poisons both models' theta and P for good.
Targets targets(const ModelSample& s, const char* where) {
  const Targets t{std::log(s.time_s / s.instructions), std::log(s.power_w)};
  if (!(s.time_s > 0.0 && s.instructions > 0.0 && s.power_w > 0.0) || !std::isfinite(t.log_tpi) ||
      !std::isfinite(t.log_p) || !finite(s.workload))
    throw std::invalid_argument(std::string(where) + ": sample is not positive and finite");
  return t;
}

}  // namespace

OnlineSocModels::OnlineSocModels(const soc::ConfigSpace& space, ml::RlsConfig rls_cfg)
    : fx_(space), time_model_(fx_.model_dim(), rls_cfg), power_model_(fx_.model_dim(), rls_cfg) {}

void OnlineSocModels::bootstrap(const std::vector<ModelSample>& samples, double ridge_alpha) {
  if (samples.empty()) throw std::invalid_argument("OnlineSocModels::bootstrap: no samples");
  std::vector<common::Vec> x;
  std::vector<double> log_tpi, log_p;
  x.reserve(samples.size());
  for (const auto& s : samples) {
    const Targets t = targets(s, "OnlineSocModels::bootstrap");
    x.push_back(fx_.model_features(s.workload, s.config));
    log_tpi.push_back(t.log_tpi);
    log_p.push_back(t.log_p);
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
  const Targets t = targets(s, "OnlineSocModels::update");
  return fit(t.log_tpi, t.log_p, fx_.model_features(s.workload, s.config));
}

double OnlineSocModels::predict_time_s(const WorkloadFeatures& w, const soc::SocConfig& c,
                                       double instructions) const {
  return std::exp(time_model_.predict(fx_.model_features(w, c))) * instructions;
}

double OnlineSocModels::predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& c) const {
  return std::exp(power_model_.predict(fx_.model_features(w, c)));
}

double OnlineSocModels::predict_energy_j(const WorkloadFeatures& w, const soc::SocConfig& c,
                                         double instructions) const {
  const common::Vec phi = fx_.model_features(w, c);
  return std::exp(time_model_.predict(phi) + power_model_.predict(phi)) * instructions;
}

double OnlineSocModels::predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& c) const {
  const common::Vec phi = fx_.model_features(w, c);
  return time_model_.predict(phi) + power_model_.predict(phi);
}

// oal-lint: hot-path
double OnlineSocModels::update(const ModelSample& s, DecisionBasis& d) {
  const Targets t = targets(s, "OnlineSocModels::update");
  d.basis_.build(s.workload);
  d.basis_.phi_into(d.basis_.rows(s.config), d.phi_);
  const double innovation = fit(t.log_tpi, t.log_p, d.phi_);
  d.basis_.weigh_into(time_model_.weights(), power_model_.weights(), d.products_);
  return innovation;
}

double OnlineSocModels::fit(double log_tpi, double log_p, const common::Vec& phi) {
  const double innovation = time_model_.update(phi, log_tpi, rls_scratch_);
  power_model_.update(phi, log_p, rls_scratch_);
  return innovation;
}
// oal-lint: hot-path-end

}  // namespace oal::core
