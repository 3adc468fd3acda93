#include "ml/svr.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/constants.h"

namespace oal::ml {

void LinearSvr::fit(const std::vector<common::Vec>& x, const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) throw std::invalid_argument("LinearSvr::fit: bad data");
  const std::size_t n = x.size();
  const std::size_t d = x.front().size();
  w_.assign(d, 0.0);
  b_ = 0.0;
  common::Rng rng(cfg_.seed);

  // Averaged SGD on the primal:
  //   min (1/2)||w||^2 + C * sum_i max(0, |y_i - (w x_i + b)| - eps)
  common::Vec w_avg(d, 0.0);
  double b_avg = 0.0;
  std::size_t avg_count = 0;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  const double lambda = 1.0 / (cfg_.c * static_cast<double>(n));
  std::size_t t = 0;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    for (std::size_t i = order.size(); i-- > 1;)
      std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)))]);
    for (std::size_t idx : order) {
      ++t;
      const double eta = cfg_.learning_rate / (1.0 + cfg_.learning_rate * lambda * static_cast<double>(t));
      const double pred = common::dot(w_, x[idx]) + b_;
      const double resid = y[idx] - pred;
      double g = 0.0;  // d(loss)/d(pred)
      if (resid > cfg_.epsilon) g = -1.0;
      else if (resid < -cfg_.epsilon) g = 1.0;
      for (std::size_t j = 0; j < d; ++j) w_[j] -= eta * (lambda * w_[j] + g * x[idx][j]);
      b_ -= eta * g;
      // Polyak averaging over the second half of training.
      if (e >= cfg_.epochs / 2) {
        ++avg_count;
        for (std::size_t j = 0; j < d; ++j)
          w_avg[j] += (w_[j] - w_avg[j]) / static_cast<double>(avg_count);
        b_avg += (b_ - b_avg) / static_cast<double>(avg_count);
      }
    }
  }
  if (avg_count > 0) {
    w_ = w_avg;
    b_ = b_avg;
  }
  fitted_ = true;
}

double LinearSvr::predict(const common::Vec& x) const {
  if (!fitted_) throw std::logic_error("LinearSvr::predict before fit");
  return common::dot(w_, x) + b_;
}

RbfSampler::RbfSampler(std::size_t input_dim, std::size_t num_features, double gamma,
                       std::uint64_t seed)
    : projection_(num_features, input_dim), offsets_(num_features) {
  if (gamma <= 0.0) throw std::invalid_argument("RbfSampler: gamma must be > 0");
  common::Rng rng(seed);
  const double scale = std::sqrt(2.0 * gamma);
  for (std::size_t i = 0; i < num_features; ++i) {
    for (std::size_t j = 0; j < input_dim; ++j) projection_(i, j) = rng.normal(0.0, scale);
    offsets_[i] = rng.uniform(0.0, 2.0 * common::kPi);
  }
}

common::Vec RbfSampler::transform(const common::Vec& x) const {
  common::Vec z = projection_ * x;
  const double amp = std::sqrt(2.0 / static_cast<double>(z.size()));
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = amp * std::cos(z[i] + offsets_[i]);
  return z;
}

}  // namespace oal::ml
