// Support vector regression.
//
// Qian et al. (TCAD 2015) learn an SVR latency model for NoCs on top of
// queueing-theoretic features; Section III-C of the surveyed paper adopts
// that construction.  We implement epsilon-insensitive linear SVR trained by
// averaged stochastic subgradient descent, plus a random-Fourier-feature map
// (Rahimi & Recht) that approximates an RBF kernel, so `RbfSampler + LinearSvr`
// behaves like kernel SVR at a fraction of the cost.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace oal::ml {

struct SvrConfig {
  double c = 10.0;          ///< inverse regularization strength
  double epsilon = 0.01;    ///< epsilon-insensitive tube half-width
  double learning_rate = 0.05;
  std::size_t epochs = 60;
  std::uint64_t seed = 7;
};

class LinearSvr {
 public:
  explicit LinearSvr(SvrConfig cfg = {}) : cfg_(cfg) {}

  void fit(const std::vector<common::Vec>& x, const std::vector<double>& y);
  double predict(const common::Vec& x) const;
  bool fitted() const { return fitted_; }
  const common::Vec& weights() const { return w_; }
  double bias() const { return b_; }

 private:
  SvrConfig cfg_;
  common::Vec w_;
  double b_ = 0.0;
  bool fitted_ = false;
};

/// Random Fourier features approximating an RBF kernel with bandwidth gamma:
/// z(x) = sqrt(2/D) * cos(W x + b),  W_ij ~ N(0, 2*gamma), b_i ~ U[0, 2*pi).
class RbfSampler {
 public:
  RbfSampler(std::size_t input_dim, std::size_t num_features, double gamma,
             std::uint64_t seed = 11);

  common::Vec transform(const common::Vec& x) const;
  std::size_t output_dim() const { return offsets_.size(); }

 private:
  common::Mat projection_;  // D x input_dim
  common::Vec offsets_;     // D
};

}  // namespace oal::ml
