// Tests for table formatting and the Sobol low-discrepancy sequence.
#include <gtest/gtest.h>

#include <cmath>

#include "common/sobol.h"
#include "common/table.h"

namespace oal::common {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row("beta", {2.5}, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Sobol, PointsInUnitCube) {
  SobolSequence s(5);
  for (int i = 0; i < 200; ++i) {
    const auto p = s.next();
    ASSERT_EQ(p.size(), 5u);
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(Sobol, FirstNontrivialPointsAreHalves) {
  SobolSequence s(2);
  (void)s.next();  // drop all-zeros
  const auto p = s.next();
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(Sobol, LowDiscrepancyBeatsGridOnMean) {
  // The mean of the first n points should converge to 0.5 quickly.
  SobolSequence s(3);
  (void)s.next();
  double sum0 = 0.0, sum1 = 0.0, sum2 = 0.0;
  const int n = 256;
  for (int i = 0; i < n; ++i) {
    const auto p = s.next();
    sum0 += p[0];
    sum1 += p[1];
    sum2 += p[2];
  }
  EXPECT_NEAR(sum0 / n, 0.5, 0.01);
  EXPECT_NEAR(sum1 / n, 0.5, 0.01);
  EXPECT_NEAR(sum2 / n, 0.5, 0.01);
}

TEST(Sobol, StratificationIn1D) {
  // The first 2^k points of a Sobol sequence hit every dyadic interval once.
  SobolSequence s(1);
  std::vector<int> bucket(16, 0);
  (void)s.next();
  for (int i = 0; i < 16; ++i) {
    const auto p = s.next();
    bucket[static_cast<std::size_t>(p[0] * 16.0)]++;
  }
  int occupied = 0;
  for (int b : bucket) occupied += b > 0;
  EXPECT_GE(occupied, 15);  // near-perfect stratification
}

TEST(Sobol, DimensionLimits) {
  EXPECT_THROW(SobolSequence(0), std::invalid_argument);
  EXPECT_THROW(SobolSequence(17), std::invalid_argument);
  EXPECT_NO_THROW(SobolSequence(16));
}

TEST(SobolGrid, ScalesToBox) {
  const auto pts = sobol_grid(64, {-1.0, 10.0}, {1.0, 20.0});
  ASSERT_EQ(pts.size(), 64u);
  for (const auto& p : pts) {
    EXPECT_GE(p[0], -1.0);
    EXPECT_LE(p[0], 1.0);
    EXPECT_GE(p[1], 10.0);
    EXPECT_LE(p[1], 20.0);
  }
}

TEST(SobolGrid, MismatchedBoundsThrow) {
  EXPECT_THROW(sobol_grid(4, {0.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace oal::common
