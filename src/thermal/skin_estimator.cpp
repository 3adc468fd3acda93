#include "thermal/skin_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/stats.h"

namespace oal::thermal {

SensorArray::SensorArray(std::vector<std::size_t> sensor_nodes, double noise_c, std::uint64_t seed)
    : nodes_(std::move(sensor_nodes)), noise_c_(noise_c), rng_(seed) {
  if (nodes_.empty()) throw std::invalid_argument("SensorArray: no sensors");
  bias_c_.resize(nodes_.size());
  for (double& b : bias_c_) b = rng_.normal(0.0, 0.3);  // per-sensor calibration offset
}

common::Vec SensorArray::read(const common::Vec& true_temps_c) {
  common::Vec out(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] >= true_temps_c.size()) throw std::invalid_argument("SensorArray: bad node");
    out[i] = true_temps_c[nodes_[i]] + bias_c_[i] + rng_.normal(0.0, noise_c_);
  }
  return out;
}

namespace {
common::Vec with_bias(const common::Vec& x) {
  common::Vec f(x);
  f.push_back(1.0);
  return f;
}
}  // namespace

SkinTemperatureEstimator::SkinTemperatureEstimator(std::size_t num_sensors)
    : dim_(num_sensors + 1), rls_(num_sensors + 1, ml::RlsConfig{0.999, 1e2, 0.0}) {}

void SkinTemperatureEstimator::fit(const std::vector<common::Vec>& sensor_readings,
                                   const std::vector<double>& skin_c) {
  if (sensor_readings.empty() || sensor_readings.size() != skin_c.size())
    throw std::invalid_argument("SkinTemperatureEstimator::fit: bad data");
  std::vector<common::Vec> x;
  x.reserve(sensor_readings.size());
  for (const auto& s : sensor_readings) {
    if (s.size() + 1 != dim_) throw std::invalid_argument("fit: sensor dim mismatch");
    x.push_back(with_bias(s));
  }
  ml::RidgeRegression ridge(1e-6);
  ridge.fit(x, skin_c, /*fit_intercept=*/false);
  rls_.set_weights(ridge.coefficients());
  fitted_ = true;
}

double SkinTemperatureEstimator::estimate(const common::Vec& sensor_reading) const {
  if (!fitted_) throw std::logic_error("SkinTemperatureEstimator::estimate before fit");
  return rls_.predict(with_bias(sensor_reading));
}

std::vector<std::size_t> greedy_sensor_selection(const std::vector<common::Vec>& sensor_readings,
                                                 const std::vector<double>& skin_c,
                                                 std::size_t budget) {
  if (sensor_readings.empty() || sensor_readings.size() != skin_c.size())
    throw std::invalid_argument("greedy_sensor_selection: bad data");
  const std::size_t total = sensor_readings.front().size();
  budget = std::min(budget, total);

  auto rmse_with = [&](const std::vector<std::size_t>& subset) {
    std::vector<common::Vec> x;
    x.reserve(sensor_readings.size());
    for (const auto& s : sensor_readings) {
      common::Vec f;
      f.reserve(subset.size());
      for (std::size_t idx : subset) f.push_back(s[idx]);
      x.push_back(std::move(f));
    }
    ml::RidgeRegression ridge(1e-6);
    ridge.fit(x, skin_c);
    std::vector<double> pred = ridge.predict(x);
    return common::rmse(skin_c, pred);
  };

  std::vector<std::size_t> selected;
  std::vector<bool> used(total, false);
  for (std::size_t round = 0; round < budget; ++round) {
    double best_err = std::numeric_limits<double>::infinity();
    std::size_t best_idx = total;
    for (std::size_t cand = 0; cand < total; ++cand) {
      if (used[cand]) continue;
      std::vector<std::size_t> trial = selected;
      trial.push_back(cand);
      const double err = rmse_with(trial);
      if (err < best_err) {
        best_err = err;
        best_idx = cand;
      }
    }
    selected.push_back(best_idx);
    used[best_idx] = true;
  }
  return selected;
}

}  // namespace oal::thermal
