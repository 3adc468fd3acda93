// Tests for the CART classification tree.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/tree.h"

namespace oal::ml {
namespace {

using common::Rng;
using common::Vec;

TEST(ClassificationTree, LearnsAxisAlignedClasses) {
  std::vector<Vec> x;
  std::vector<std::size_t> y;
  for (int i = 0; i < 100; ++i) {
    const double t = i / 100.0;
    x.push_back({t});
    y.push_back(t < 0.3 ? 0u : t < 0.7 ? 1u : 2u);
  }
  ClassificationTree tree;
  tree.fit(x, y, 3);
  EXPECT_EQ(tree.predict({0.1}), 0u);
  EXPECT_EQ(tree.predict({0.5}), 1u);
  EXPECT_EQ(tree.predict({0.9}), 2u);
}

TEST(ClassificationTree, PureNodeStopsEarly) {
  std::vector<Vec> x{{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<std::size_t> y{1, 1, 1, 1};
  ClassificationTree tree;
  tree.fit(x, y, 2);
  EXPECT_EQ(tree.predict({-5.0}), 1u);
  EXPECT_EQ(tree.predict({10.0}), 1u);
}

TEST(ClassificationTree, TwoDimensionalCheckerQuadrants) {
  Rng rng(5);
  std::vector<Vec> x;
  std::vector<std::size_t> y;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y.push_back((a > 0 ? 1u : 0u) + (b > 0 ? 2u : 0u));
  }
  ClassificationTree tree;
  tree.fit(x, y, 4);
  int correct = 0, total = 0;
  Rng test_rng(6);
  for (int i = 0; i < 200; ++i) {
    const double a = test_rng.uniform(-1, 1), b = test_rng.uniform(-1, 1);
    if (std::abs(a) < 0.05 || std::abs(b) < 0.05) continue;
    correct += tree.predict({a, b}) == (a > 0 ? 1u : 0u) + (b > 0 ? 2u : 0u);
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.95);
}

TEST(ClassificationTree, LabelOutOfRangeThrows) {
  ClassificationTree tree;
  EXPECT_THROW(tree.fit({{0.0}}, {5}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace oal::ml
