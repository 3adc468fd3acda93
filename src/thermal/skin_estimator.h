// Skin-temperature estimation and sensor selection (paper Section III-A).
//
// Device-skin temperature cannot be measured directly in production
// hardware; it is estimated from internal sensors (die/PCB thermistors) with
// a learned model (Egilmez et al. DATE'15; Chetoui & Reda).  Internal
// sensors are noisy and placement-limited, so a greedy sensor-selection pass
// (Zhang et al., Automatica 2017) picks the subset that minimizes estimation
// error under a budget.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "ml/linreg.h"
#include "ml/rls.h"
#include "thermal/rc_network.h"

namespace oal::thermal {

/// Synthetic "internal sensor" readout: node temperatures of the RC network
/// (excluding the skin node) plus per-sensor bias and noise.
class SensorArray {
 public:
  /// sensor_nodes: indices of observable network nodes.
  SensorArray(std::vector<std::size_t> sensor_nodes, double noise_c = 0.2,
              std::uint64_t seed = 33);

  std::size_t num_sensors() const { return nodes_.size(); }
  const std::vector<std::size_t>& nodes() const { return nodes_; }

  /// Noisy readings of the given true temperature vector.
  common::Vec read(const common::Vec& true_temps_c);

 private:
  std::vector<std::size_t> nodes_;
  double noise_c_;
  common::Vec bias_c_;
  common::Rng rng_;
};

/// Offline-trained skin estimator over sensor readings.
class SkinTemperatureEstimator {
 public:
  explicit SkinTemperatureEstimator(std::size_t num_sensors);

  /// Batch fit from (sensor readings, true skin temperature) pairs.
  void fit(const std::vector<common::Vec>& sensor_readings, const std::vector<double>& skin_c);

  double estimate(const common::Vec& sensor_reading) const;
  bool fitted() const { return fitted_; }

 private:
  std::size_t dim_;
  ml::RecursiveLeastSquares rls_;
  bool fitted_ = false;
};

/// Greedy sensor subset selection: repeatedly adds the sensor whose addition
/// most reduces skin-estimation RMSE on a training set; stops at `budget`.
/// Returns selected indices (into the sensor vector), best-first.
std::vector<std::size_t> greedy_sensor_selection(const std::vector<common::Vec>& sensor_readings,
                                                 const std::vector<double>& skin_c,
                                                 std::size_t budget);

}  // namespace oal::thermal
