// Recursive least squares with exponential forgetting.
//
// This is the workhorse online model of the paper (Section III-B): power and
// performance models are linear in a feature vector derived from hardware
// counters, and are updated after every snippet/frame with a forgetting
// factor lambda so stale workload phases decay.  Gupta et al. (IEEE TC 2018)
// use exactly this construction for integrated-GPU frame-time modeling.
#pragma once

#include "common/matrix.h"

namespace oal::ml {

struct RlsConfig {
  double lambda = 0.98;        ///< forgetting factor in (0, 1]
  double initial_p = 1e3;      ///< initial covariance scale (P = p0 * I)
  double regularization = 0.0; ///< optional Tikhonov term added to denominator
};

class RecursiveLeastSquares {
 public:
  RecursiveLeastSquares(std::size_t dim, RlsConfig cfg = {});

  /// Predicted output theta^T x.
  double predict(const common::Vec& x) const;

  /// Reusable temporaries for the allocation-free update overload.  One
  /// Scratch serves models of any dim (buffers grow to the largest dim seen
  /// and then stop allocating), so a controller can share one across its
  /// per-frame refits.
  struct Scratch {
    common::Vec px;  ///< P x
    common::Vec k;   ///< Kalman gain K
  };

  /// One RLS update step; returns the a-priori prediction error (y - theta^T x).
  double update(const common::Vec& x, double y);

  /// Allocation-free update: arithmetic identical (bitwise) to
  /// update(x, y), with the temporaries parked in `scratch`.  Steady-state
  /// it performs no heap allocation; update(x, y) is a thin wrapper.
  double update(const common::Vec& x, double y, Scratch& scratch);

  const common::Vec& weights() const { return theta_; }
  void set_weights(common::Vec theta);
  const common::Mat& covariance() const { return p_; }
  double lambda() const { return cfg_.lambda; }
  void set_lambda(double lambda);
  std::size_t dim() const { return theta_.size(); }
  std::size_t updates() const { return updates_; }

 private:
  RlsConfig cfg_;
  common::Vec theta_;
  common::Mat p_;
  std::size_t updates_ = 0;
};

}  // namespace oal::ml
