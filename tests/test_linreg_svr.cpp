// Tests for ridge regression, quadratic features, linear SVR and RBF features.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "ml/linreg.h"
#include "ml/svr.h"

namespace oal::ml {
namespace {

using common::Rng;
using common::Vec;

TEST(Ridge, RecoversLineWithIntercept) {
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double t = i * 0.1;
    x.push_back({t});
    y.push_back(3.0 * t + 2.0);
  }
  RidgeRegression r(1e-9);
  r.fit(x, y);
  EXPECT_NEAR(r.coefficients()[0], 3.0, 1e-6);
  EXPECT_NEAR(r.intercept(), 2.0, 1e-6);
}

TEST(Ridge, MultivariateRecovery) {
  Rng rng(1);
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const Vec xi{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    x.push_back(xi);
    y.push_back(1.0 - 2.0 * xi[0] + 0.5 * xi[1] + 4.0 * xi[2]);
  }
  RidgeRegression r(1e-8);
  r.fit(x, y);
  EXPECT_NEAR(r.coefficients()[0], -2.0, 1e-5);
  EXPECT_NEAR(r.coefficients()[1], 0.5, 1e-5);
  EXPECT_NEAR(r.coefficients()[2], 4.0, 1e-5);
  EXPECT_NEAR(r.intercept(), 1.0, 1e-5);
}

TEST(Ridge, RegularizationShrinksCoefficients) {
  Rng rng(2);
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const Vec xi{rng.uniform(-1, 1)};
    x.push_back(xi);
    y.push_back(5.0 * xi[0] + rng.normal(0.0, 0.1));
  }
  RidgeRegression weak(1e-8), strong(1e3);
  weak.fit(x, y);
  strong.fit(x, y);
  EXPECT_LT(std::abs(strong.coefficients()[0]), std::abs(weak.coefficients()[0]));
}

TEST(Ridge, NoInterceptMode) {
  std::vector<Vec> x{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}};
  std::vector<double> y{2.0, 3.0, 5.0, 7.0};
  RidgeRegression r(1e-10);
  r.fit(x, y, /*fit_intercept=*/false);
  EXPECT_NEAR(r.intercept(), 0.0, 1e-12);
  EXPECT_NEAR(r.predict({1.0, 1.0}), 5.0, 1e-6);
}

TEST(Ridge, PredictBeforeFitThrows) {
  RidgeRegression r;
  EXPECT_THROW(r.predict(common::Vec{1.0}), std::logic_error);
}

TEST(Ridge, BadDataThrows) {
  RidgeRegression r;
  EXPECT_THROW(r.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(r.fit({{1.0}}, {1.0, 2.0}), std::invalid_argument);
}

TEST(QuadraticFeatures, ExpandsCorrectly) {
  const Vec f = quadratic_features({2.0, 3.0});
  // [x0, x1, x0^2, x0*x1, x1^2]
  ASSERT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
  EXPECT_DOUBLE_EQ(f[2], 4.0);
  EXPECT_DOUBLE_EQ(f[3], 6.0);
  EXPECT_DOUBLE_EQ(f[4], 9.0);
}

TEST(QuadraticFeatures, EnablesQuadraticFit) {
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = -10; i <= 10; ++i) {
    const double t = i * 0.2;
    x.push_back(quadratic_features({t}));
    y.push_back(1.0 + 2.0 * t - 3.0 * t * t);
  }
  RidgeRegression r(1e-9);
  r.fit(x, y);
  EXPECT_NEAR(r.predict(quadratic_features({0.5})), 1.0 + 1.0 - 0.75, 1e-6);
}

TEST(LinearSvr, FitsNoisyLine) {
  Rng rng(3);
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const Vec xi{rng.uniform(-1, 1)};
    x.push_back(xi);
    y.push_back(2.0 * xi[0] - 1.0 + rng.normal(0.0, 0.02));
  }
  LinearSvr svr;
  svr.fit(x, y);
  EXPECT_NEAR(svr.weights()[0], 2.0, 0.15);
  EXPECT_NEAR(svr.bias(), -1.0, 0.15);
}

TEST(LinearSvr, EpsilonInsensitiveIgnoresSmallNoise) {
  // With a wide tube, noise inside the tube should not destabilize weights.
  Rng rng(4);
  std::vector<Vec> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const Vec xi{rng.uniform(-1, 1)};
    x.push_back(xi);
    y.push_back(xi[0] + rng.uniform(-0.05, 0.05));
  }
  SvrConfig cfg;
  cfg.epsilon = 0.1;
  LinearSvr svr(cfg);
  svr.fit(x, y);
  EXPECT_NEAR(svr.weights()[0], 1.0, 0.15);
}

TEST(LinearSvr, PredictBeforeFitThrows) {
  LinearSvr svr;
  EXPECT_THROW(svr.predict({1.0}), std::logic_error);
}

TEST(RbfSampler, ApproximatesRbfKernel) {
  // E[z(x) . z(y)] ~= exp(-gamma ||x - y||^2).
  const double gamma = 0.5;
  RbfSampler sampler(2, 2048, gamma, 5);
  auto kernel_approx = [&](const Vec& a, const Vec& b) {
    return common::dot(sampler.transform(a), sampler.transform(b));
  };
  const Vec a{0.3, -0.2}, b{-0.5, 0.4};
  const double d2 = (a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1]);
  EXPECT_NEAR(kernel_approx(a, b), std::exp(-gamma * d2), 0.05);
  EXPECT_NEAR(kernel_approx(a, a), 1.0, 0.05);
}

TEST(RbfSampler, EnablesNonlinearRegression) {
  // sin(3x) is not linearly representable; RBF features + linear SVR is.
  Rng rng(6);
  std::vector<Vec> x_raw;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    const double t = rng.uniform(-1.5, 1.5);
    x_raw.push_back({t});
    y.push_back(std::sin(3.0 * t));
  }
  RbfSampler sampler(1, 200, 2.0, 7);
  std::vector<Vec> x;
  for (const Vec& r : x_raw) x.push_back(sampler.transform(r));
  SvrConfig cfg;
  cfg.epochs = 120;
  cfg.c = 100.0;
  LinearSvr svr(cfg);
  svr.fit(x, y);
  std::vector<double> pred, actual;
  Rng test_rng(8);
  for (int i = 0; i < 100; ++i) {
    const double t = test_rng.uniform(-1.4, 1.4);
    pred.push_back(svr.predict(sampler.transform(Vec{t})));
    actual.push_back(std::sin(3.0 * t));
  }
  EXPECT_LT(common::rmse(actual, pred), 0.15);
}

TEST(RbfSampler, InvalidGammaThrows) {
  EXPECT_THROW(RbfSampler(2, 8, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace oal::ml
