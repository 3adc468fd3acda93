// Tests for the MLP and multi-head classifier (the IL policy network).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "ml/mlp.h"

namespace oal::ml {
namespace {

using common::Rng;
using common::Vec;

TEST(Mlp, OutputShape) {
  Mlp net(3, 2, {});
  const Vec y = net.forward({0.1, -0.2, 0.3});
  EXPECT_EQ(y.size(), 2u);
}

TEST(Mlp, CopyParamsMakesNetworksIdentical) {
  Mlp a(3, 2, {{8}, Activation::kRelu, 1e-3, 0.0, 5});
  Mlp b(3, 2, {{8}, Activation::kRelu, 1e-3, 0.0, 99});
  const Vec x{0.3, -0.1, 0.7};
  EXPECT_NE(a.forward(x)[0], b.forward(x)[0]);
  b.copy_params_from(a);
  EXPECT_DOUBLE_EQ(a.forward(x)[0], b.forward(x)[0]);
  EXPECT_DOUBLE_EQ(a.forward(x)[1], b.forward(x)[1]);
}

TEST(Mlp, InvalidDimsThrow) {
  EXPECT_THROW(Mlp(0, 1, {}), std::invalid_argument);
  Mlp net(2, 1, {});
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
  EXPECT_THROW(net.train_batch(common::Mat(1, 1), common::Mat(1, 1)), std::invalid_argument);
  EXPECT_THROW(net.train_batch(common::Mat(1, 2), common::Mat(1, 2)), std::invalid_argument);
}

TEST(Mlp, BatchForwardMatchesScalarForwardBitwise) {
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    MlpConfig cfg;
    cfg.hidden = {8, 5};
    cfg.activation = act;
    cfg.seed = 12;
    Mlp net(3, 2, cfg);
    Rng rng(13);
    common::Mat xs(6, 3);
    for (std::size_t r = 0; r < xs.rows(); ++r)
      for (std::size_t c = 0; c < xs.cols(); ++c) xs(r, c) = rng.uniform(-2, 2);
    const common::Mat ys = net.forward_batch(xs);
    ASSERT_EQ(ys.rows(), 6u);
    ASSERT_EQ(ys.cols(), 2u);
    for (std::size_t r = 0; r < xs.rows(); ++r) {
      const Vec y = net.forward(Vec(xs.raw() + 3 * r, xs.raw() + 3 * r + 3));
      EXPECT_EQ(std::memcmp(ys.raw() + 2 * r, y.data(), 2 * sizeof(double)), 0) << "row " << r;
    }
  }
}

TEST(MultiHead, PredictShapes) {
  MultiHeadClassifier net(4, {3, 5}, {});
  const auto cls = net.predict({0.1, 0.2, 0.3, 0.4});
  ASSERT_EQ(cls.size(), 2u);
  EXPECT_LT(cls[0], 3u);
  EXPECT_LT(cls[1], 5u);
}

TEST(MultiHead, LearnsSeparableMapping) {
  // Head 0: sign of x0; head 1: quadrant of (x0, x1) among 4 classes.
  MlpConfig cfg;
  cfg.hidden = {16};
  cfg.learning_rate = 5e-3;
  cfg.seed = 6;
  MultiHeadClassifier net(2, {2, 4}, cfg);
  Rng rng(7);
  std::vector<Vec> xs;
  std::vector<std::vector<std::size_t>> ys;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    xs.push_back({a, b});
    const std::size_t sign = a > 0 ? 1u : 0u;
    const std::size_t quad = (a > 0 ? 1u : 0u) + (b > 0 ? 2u : 0u);
    ys.push_back({sign, quad});
  }
  net.train(xs, ys, 60, 32, rng);
  int correct = 0, total = 0;
  Rng test_rng(8);
  for (int i = 0; i < 200; ++i) {
    const double a = test_rng.uniform(-1, 1), b = test_rng.uniform(-1, 1);
    if (std::abs(a) < 0.1 || std::abs(b) < 0.1) continue;  // skip boundary
    const auto cls = net.predict({a, b});
    const std::size_t sign = a > 0 ? 1u : 0u;
    const std::size_t quad = (a > 0 ? 1u : 0u) + (b > 0 ? 2u : 0u);
    correct += cls[0] == sign && cls[1] == quad;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.93);
}

TEST(MultiHead, LossDecreasesWithTraining) {
  MlpConfig cfg;
  cfg.hidden = {8};
  cfg.seed = 9;
  MultiHeadClassifier net(2, {3}, cfg);
  Rng rng(10);
  std::vector<Vec> xs;
  std::vector<std::vector<std::size_t>> ys;
  for (int i = 0; i < 150; ++i) {
    const double a = rng.uniform(-1, 1);
    xs.push_back({a, a * a});
    ys.push_back({a < -0.3 ? 0u : a < 0.3 ? 1u : 2u});
  }
  const double l1 = net.train(xs, ys, 1, 32, rng);
  const double l2 = net.train(xs, ys, 30, 32, rng);
  EXPECT_LT(l2, l1);
}

TEST(MultiHead, StorageBudgetMatchesPaper) {
  // The paper's policy + buffer must fit in <20 KB; our default-size policy
  // network alone is well under that.
  MultiHeadClassifier net(12, {4, 5, 13, 19}, {{24, 24}, Activation::kTanh, 1e-3, 0.0, 1});
  EXPECT_LT(net.storage_bytes(), 20u * 1024u);
}

TEST(MultiHead, InvalidLabelsThrow) {
  MultiHeadClassifier net(2, {3, 2}, {});
  const common::Mat x(1, 2);
  EXPECT_THROW(net.train_batch(x, {{0}}), std::invalid_argument);
  EXPECT_THROW(net.train_batch(x, {{3, 0}}), std::invalid_argument);
  EXPECT_THROW(MultiHeadClassifier(2, {}, {}), std::invalid_argument);
  EXPECT_THROW(MultiHeadClassifier(2, {1}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace oal::ml
