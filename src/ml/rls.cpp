#include "ml/rls.h"

#include <stdexcept>

namespace oal::ml {

RecursiveLeastSquares::RecursiveLeastSquares(std::size_t dim, RlsConfig cfg)
    : cfg_(cfg), theta_(dim, 0.0), p_(common::Mat::identity(dim) * cfg.initial_p) {
  if (dim == 0) throw std::invalid_argument("RLS: dim must be > 0");
  if (cfg.lambda <= 0.0 || cfg.lambda > 1.0)
    throw std::invalid_argument("RLS: lambda must be in (0, 1]");
  if (cfg.initial_p <= 0.0) throw std::invalid_argument("RLS: initial_p must be > 0");
}

double RecursiveLeastSquares::predict(const common::Vec& x) const {
  return common::dot(theta_, x);
}

double RecursiveLeastSquares::update(const common::Vec& x, double y) {
  Scratch scratch;
  return update(x, y, scratch);
}

// oal-lint: hot-path
double RecursiveLeastSquares::update(const common::Vec& x, double y, Scratch& scratch) {
  if (x.size() != theta_.size()) throw std::invalid_argument("RLS: feature dim mismatch");
  const std::size_t n = theta_.size();
  const double err = y - predict(x);
  // K = P x / (lambda + x' P x); px/k live in the caller's scratch (resize
  // is a no-op once the buffers have grown to the largest dim in use).
  if (scratch.px.size() < n) scratch.px.resize(n);  // oal-lint: allow(hot-path-alloc)
  if (scratch.k.size() < n) scratch.k.resize(n);    // oal-lint: allow(hot-path-alloc)
  common::Vec& px = scratch.px;
  common::Vec& k = scratch.k;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += p_(i, j) * x[j];
    px[i] = s;
  }
  double xpx = 0.0;
  for (std::size_t i = 0; i < n; ++i) xpx += x[i] * px[i];
  const double denom = cfg_.lambda + xpx + cfg_.regularization;
  const double inv_denom = 1.0 / denom;
  for (std::size_t i = 0; i < n; ++i) k[i] = px[i] * inv_denom;
  // theta += K err
  for (std::size_t i = 0; i < n; ++i) theta_[i] += k[i] * err;
  // P = (P - K x' P) / lambda — fused elementwise; bitwise-equal to the
  // outer/subtract/scale triple it replaces (same products, same order).
  const double inv_lambda = 1.0 / cfg_.lambda;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) p_(i, j) = (p_(i, j) - k[i] * px[j]) * inv_lambda;
  // Symmetrize to fight numerical drift.
  for (std::size_t i = 0; i < p_.rows(); ++i)
    for (std::size_t j = i + 1; j < p_.cols(); ++j) {
      const double v = 0.5 * (p_(i, j) + p_(j, i));
      p_(i, j) = v;
      p_(j, i) = v;
    }
  ++updates_;
  return err;
}
// oal-lint: hot-path-end

void RecursiveLeastSquares::set_weights(common::Vec theta) {
  if (theta.size() != theta_.size()) throw std::invalid_argument("RLS: weight dim mismatch");
  theta_ = std::move(theta);
}

void RecursiveLeastSquares::set_lambda(double lambda) {
  if (lambda <= 0.0 || lambda > 1.0) throw std::invalid_argument("RLS: lambda out of range");
  cfg_.lambda = lambda;
}

}  // namespace oal::ml
