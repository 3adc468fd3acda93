#include "ml/optimizer.h"

#include <stdexcept>

#include "common/kernels.h"

namespace oal::ml {

// ---- Sgd -------------------------------------------------------------------

Sgd::Sgd(double learning_rate, double l2, double momentum)
    : lr_(learning_rate), l2_(l2), momentum_(momentum) {}

void Sgd::apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) {
  if (momentum_ != 0.0 && vw_.empty()) {
    vw_ = common::Mat(w.rows(), w.cols());
    vb_.assign(b.size(), 0.0);
  }
  // Flat loops over the row-major storage: every element's update is
  // independent, so this is bit-identical to the nested (row, col) loops.
  const std::size_t n = w.rows() * w.cols();
  double* __restrict__ wp = w.raw();
  const double* __restrict__ gp = gw;
  if (momentum_ != 0.0) {
    double* __restrict__ vp = vw_.raw();
    for (std::size_t i = 0; i < n; ++i) {
      const double g = gp[i] + l2_ * wp[i];
      vp[i] = momentum_ * vp[i] - lr_ * g;
      wp[i] += vp[i];
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      vb_[i] = momentum_ * vb_[i] - lr_ * gb[i];
      b[i] += vb_[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) wp[i] -= lr_ * (gp[i] + l2_ * wp[i]);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] -= lr_ * gb[i];
  }
}

std::unique_ptr<Optimizer> Sgd::clone() const { return std::make_unique<Sgd>(*this); }

// ---- Adam ------------------------------------------------------------------

Adam::Adam(double learning_rate, double l2, double beta1, double beta2, double epsilon)
    : lr_(learning_rate), l2_(l2), beta1_(beta1), beta2_(beta2), eps_(epsilon) {}

void Adam::apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) {
  if (mw_.empty()) {
    mw_ = common::Mat(w.rows(), w.cols());
    vw_ = common::Mat(w.rows(), w.cols());
    mb_.assign(b.size(), 0.0);
    vb_.assign(b.size(), 0.0);
  }
  beta1_t_ *= beta1_;
  beta2_t_ *= beta2_;
  const double omb1 = 1.0 - beta1_, omb2 = 1.0 - beta2_;
  const double bc1 = 1.0 - beta1_t_;
  const double bc2 = 1.0 - beta2_t_;
  const common::kernels::AdamStep p{lr_, l2_, beta1_, beta2_, omb1, omb2, bc1, bc2, eps_};
  // Flat loops over the row-major storage: every element's update is
  // independent, so this is bit-identical to the nested (row, col) loops,
  // and the kernel variants vectorize the sqrt/div chain (element-wise IEEE
  // ops — vector and scalar lanes round identically).
  const auto& k = common::kernels::active();
  k.adam(w.rows() * w.cols(), p, true, w.raw(), mw_.raw(), vw_.raw(), gw);
  k.adam(b.size(), p, false, b.data(), mb_.data(), vb_.data(), gb);
}

std::unique_ptr<Optimizer> Adam::clone() const { return std::make_unique<Adam>(*this); }

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg, double learning_rate,
                                          double l2) {
  switch (cfg.kind) {
    case OptimizerConfig::Kind::kSgd:
      return std::make_unique<Sgd>(learning_rate, l2, cfg.momentum);
    case OptimizerConfig::Kind::kAdam:
      return std::make_unique<Adam>(learning_rate, l2, cfg.beta1, cfg.beta2, cfg.epsilon);
  }
  throw std::invalid_argument("make_optimizer: unknown optimizer kind");
}

}  // namespace oal::ml
