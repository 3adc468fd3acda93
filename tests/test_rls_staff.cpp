// Tests for recursive least squares and the STAFF adaptive-forgetting model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/rls.h"
#include "ml/staff.h"

namespace oal::ml {
namespace {

using common::Rng;
using common::Vec;

Vec features3(Rng& rng) { return {1.0, rng.uniform(-1, 1), rng.uniform(-1, 1)}; }

TEST(Rls, RecoversLinearFunction) {
  Rng rng(1);
  RecursiveLeastSquares rls(3, {1.0, 1e3, 0.0});
  const Vec truth{0.5, -2.0, 3.0};
  for (int i = 0; i < 300; ++i) {
    const Vec x = features3(rng);
    rls.update(x, common::dot(truth, x));
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(rls.weights()[i], truth[i], 1e-4);
}

TEST(Rls, PredictionErrorShrinks) {
  Rng rng(2);
  RecursiveLeastSquares rls(3, {0.99, 1e3, 0.0});
  const Vec truth{1.0, 2.0, -1.0};
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 400; ++i) {
    const Vec x = features3(rng);
    const double e = std::abs(rls.update(x, common::dot(truth, x) + rng.normal(0.0, 0.01)));
    if (i < 20) early += e;
    if (i >= 380) late += e;
  }
  EXPECT_LT(late, early * 0.5);
}

TEST(Rls, ForgettingTracksDrift) {
  // Abrupt coefficient change: lambda < 1 should re-converge, lambda == 1
  // (infinite memory) should lag.
  auto run = [](double lambda) {
    Rng rng(3);
    RecursiveLeastSquares rls(2, {lambda, 1e3, 0.0});
    Vec truth{1.0, 1.0};
    double tail_err = 0.0;
    for (int i = 0; i < 600; ++i) {
      if (i == 300) truth = {-2.0, 0.5};
      const Vec x{1.0, rng.uniform(-1, 1)};
      const double e = std::abs(rls.update(x, common::dot(truth, x)));
      if (i >= 580) tail_err += e;
    }
    return tail_err;
  };
  EXPECT_LT(run(0.95), run(1.0) * 0.8 + 1e-9);
}

TEST(Rls, InvalidConfigThrows) {
  EXPECT_THROW(RecursiveLeastSquares(0), std::invalid_argument);
  EXPECT_THROW(RecursiveLeastSquares(2, {1.5, 1e3, 0.0}), std::invalid_argument);
  EXPECT_THROW(RecursiveLeastSquares(2, {0.9, -1.0, 0.0}), std::invalid_argument);
}

TEST(Rls, DimMismatchThrows) {
  RecursiveLeastSquares rls(3);
  EXPECT_THROW(rls.update({1.0, 2.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(rls.set_weights({1.0}), std::invalid_argument);
}

TEST(Rls, SetWeightsBootstrap) {
  RecursiveLeastSquares rls(2);
  rls.set_weights({3.0, -1.0});
  EXPECT_DOUBLE_EQ(rls.predict({1.0, 1.0}), 2.0);
}

TEST(Staff, RecoversLinearFunctionLikeRls) {
  Rng rng(7);
  StaffModel m(3);
  const Vec truth{0.5, -2.0, 3.0};
  for (int i = 0; i < 500; ++i) {
    const Vec x = features3(rng);
    m.update(x, common::dot(truth, x) + rng.normal(0.0, 0.005));
  }
  Rng test_rng(8);
  for (int i = 0; i < 20; ++i) {
    const Vec x = features3(test_rng);
    EXPECT_NEAR(m.predict(x), common::dot(truth, x), 0.05);
  }
}

TEST(Staff, LambdaDropsOnRegimeChange) {
  Rng rng(9);
  StaffConfig cfg;
  cfg.lambda_min = 0.85;
  StaffModel m(2, cfg);
  Vec truth{1.0, 1.0};
  // Converge.
  for (int i = 0; i < 200; ++i) {
    const Vec x{1.0, rng.uniform(-1, 1)};
    m.update(x, common::dot(truth, x) + rng.normal(0.0, 0.01));
  }
  const double lambda_steady = m.lambda();
  // Regime change: first few updates must push lambda down.
  truth = {-4.0, 2.0};
  double lambda_min_seen = 1.0;
  for (int i = 0; i < 10; ++i) {
    const Vec x{1.0, rng.uniform(-1, 1)};
    m.update(x, common::dot(truth, x) + rng.normal(0.0, 0.01));
    lambda_min_seen = std::min(lambda_min_seen, m.lambda());
  }
  EXPECT_LT(lambda_min_seen, lambda_steady);
}

TEST(Staff, AdaptsFasterThanFixedHighLambda) {
  auto tail_error = [](bool adaptive) {
    Rng rng(11);
    Vec truth{1.0, 2.0};
    StaffConfig cfg;
    if (!adaptive) {
      cfg.lambda_min = cfg.lambda_max = cfg.lambda_init = 0.999;
    }
    StaffModel m(2, cfg);
    double tail = 0.0;
    for (int i = 0; i < 400; ++i) {
      if (i == 200) truth = {-3.0, 0.5};
      const Vec x{1.0, rng.uniform(-1, 1)};
      const double e = std::abs(m.update(x, common::dot(truth, x)));
      if (i >= 210 && i < 260) tail += std::abs(e);
    }
    return tail;
  };
  EXPECT_LT(tail_error(true), tail_error(false));
}

TEST(Staff, FeatureSelectionDropsIrrelevant) {
  Rng rng(13);
  StaffConfig cfg;
  cfg.top_k = 2;
  cfg.warmup = 32;
  cfg.reselect_period = 32;
  StaffModel m(4, cfg);
  // Only features 0 and 2 matter; 1 and 3 are noise inputs.
  for (int i = 0; i < 300; ++i) {
    const Vec x{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    m.update(x, 2.0 * x[0] - 1.5 * x[2]);
  }
  EXPECT_EQ(m.num_active(), 2u);
  EXPECT_TRUE(m.active_mask()[0]);
  EXPECT_TRUE(m.active_mask()[2]);
  EXPECT_FALSE(m.active_mask()[1]);
  EXPECT_FALSE(m.active_mask()[3]);
}

TEST(Staff, InvalidConfigThrows) {
  StaffConfig bad;
  bad.lambda_min = 0.99;
  bad.lambda_max = 0.9;
  EXPECT_THROW(StaffModel(2, bad), std::invalid_argument);
  StaffConfig too_many;
  too_many.top_k = 5;
  EXPECT_THROW(StaffModel(2, too_many), std::invalid_argument);
}

}  // namespace
}  // namespace oal::ml
