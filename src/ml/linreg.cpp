#include "ml/linreg.h"

#include <cmath>
#include <stdexcept>

namespace oal::ml {

void RidgeRegression::fit(const std::vector<common::Vec>& x, const std::vector<double>& y,
                          bool fit_intercept) {
  if (x.empty() || x.size() != y.size()) throw std::invalid_argument("RidgeRegression::fit: bad data");
  const std::size_t n = x.size();
  const std::size_t d = x.front().size();

  common::Vec xmean(d, 0.0);
  double ymean = 0.0;
  if (fit_intercept) {
    for (const auto& xi : x)
      for (std::size_t j = 0; j < d; ++j) xmean[j] += xi[j] / static_cast<double>(n);
    for (double yi : y) ymean += yi / static_cast<double>(n);
  }

  // Normal equations on centered data: (X'X + alpha I) theta = X'y.
  common::Mat xtx(d, d);
  common::Vec xty(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    common::Vec xc = x[i];
    for (std::size_t j = 0; j < d; ++j) xc[j] -= xmean[j];
    const double yc = y[i] - ymean;
    for (std::size_t a = 0; a < d; ++a) {
      xty[a] += xc[a] * yc;
      for (std::size_t b = a; b < d; ++b) xtx(a, b) += xc[a] * xc[b];
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);
    xtx(a, a) += alpha_;
  }
  theta_ = common::cholesky_solve(xtx, xty);
  intercept_ = ymean - common::dot(theta_, xmean);
  fitted_ = true;
}

double RidgeRegression::predict(const common::Vec& x) const {
  if (!fitted_) throw std::logic_error("RidgeRegression::predict before fit");
  return common::dot(theta_, x) + intercept_;
}

std::vector<double> RidgeRegression::predict(const std::vector<common::Vec>& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& xi : x) out.push_back(predict(xi));
  return out;
}

common::Vec quadratic_features(const common::Vec& x) {
  common::Vec f;
  f.reserve(x.size() + x.size() * (x.size() + 1) / 2);
  for (double v : x) f.push_back(v);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = i; j < x.size(); ++j) f.push_back(x[i] * x[j]);
  return f;
}

}  // namespace oal::ml
