// Batch ridge (L2-regularized least squares) regression.
//
// Used for: offline bootstrap of the online power/performance models, the
// explicit-NMPC surface approximation, skin-temperature estimation, and the
// NoC analytical-model correction.
#pragma once

#include <vector>

#include "common/matrix.h"

namespace oal::ml {

class RidgeRegression {
 public:
  explicit RidgeRegression(double alpha = 1e-6) : alpha_(alpha) {}

  /// Fits theta = argmin ||X theta - y||^2 + alpha ||theta||^2.
  /// If fit_intercept, an intercept is estimated separately (not penalized).
  void fit(const std::vector<common::Vec>& x, const std::vector<double>& y,
           bool fit_intercept = true);

  double predict(const common::Vec& x) const;
  std::vector<double> predict(const std::vector<common::Vec>& x) const;

  bool fitted() const { return fitted_; }
  const common::Vec& coefficients() const { return theta_; }
  double intercept() const { return intercept_; }

 private:
  double alpha_;
  common::Vec theta_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

/// Expands x to degree-2 polynomial features: [x, x_i*x_j (i<=j)].
common::Vec quadratic_features(const common::Vec& x);

}  // namespace oal::ml
