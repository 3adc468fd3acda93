// Unit tests for the dense linear algebra kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "common/matrix.h"

namespace oal::common {
namespace {

TEST(Mat, ConstructAndIndex) {
  Mat m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Mat, InitializerListRejectsRagged) {
  EXPECT_THROW(Mat({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Mat, IdentityAndDiag) {
  const Mat i = Mat::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Mat d = Mat::diag({2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Mat, Transpose) {
  const Mat m{{1, 2, 3}, {4, 5, 6}};
  const Mat t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Mat, MultiplyMatchesHandComputation) {
  const Mat a{{1, 2}, {3, 4}};
  const Mat b{{5, 6}, {7, 8}};
  const Mat c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Mat, MatVecProduct) {
  const Mat a{{1, 2}, {3, 4}};
  const Vec v = a * Vec{1.0, -1.0};
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
}

TEST(Mat, SizeMismatchThrows) {
  const Mat a(2, 3);
  const Mat b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  const Vec bad{1.0, 2.0};
  EXPECT_THROW(a * bad, std::invalid_argument);
}

TEST(VecOps, DotAddSubScale) {
  const Vec a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(add(a, b)[2], 9.0);
  EXPECT_DOUBLE_EQ(sub(b, a)[0], 3.0);
  EXPECT_DOUBLE_EQ(scale(a, 2.0)[1], 4.0);
}

TEST(VecOps, Outer) {
  const Mat o = outer({1, 2}, {3, 4, 5});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

/// Solves A x = b through the factor/apply pair.
Vec solve(const Mat& a, const Vec& b) {
  Vec x(b.size());
  lu_apply(lu_factor(a), b, x);
  return x;
}

TEST(LuSolve, RecoversKnownSolution) {
  const Mat a{{4, 3}, {6, 3}};
  const Vec x = solve(a, Vec{10, 12});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolve, SingularThrows) {
  const Mat a{{1, 2}, {2, 4}};
  EXPECT_THROW(lu_factor(a), std::runtime_error);
}

TEST(LuSolve, RequiresPivoting) {
  // Zero on the initial diagonal: fails without partial pivoting.
  const Mat a{{0, 1}, {1, 0}};
  const Vec x = solve(a, Vec{3, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Inverse, TimesOriginalIsIdentity) {
  const Mat a{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  const Mat ai = inverse(a);
  const Mat prod = a * ai;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Cholesky, FactorReconstructs) {
  const Mat a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
  const Mat l = cholesky(a);
  const Mat rec = l * l.transpose();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(rec(r, c), a(r, c), 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  EXPECT_THROW(cholesky(Mat{{1, 2}, {2, 1}}), std::runtime_error);
}

TEST(CholeskySolve, MatchesLu) {
  const Mat a{{4, 2}, {2, 5}};
  const Vec b{6, 9};
  const Vec x1 = cholesky_solve(a, b);
  const Vec x2 = solve(a, b);
  EXPECT_NEAR(x1[0], x2[0], 1e-12);
  EXPECT_NEAR(x1[1], x2[1], 1e-12);
}

TEST(Eigenvalues, DiagonalMatrix) {
  const Eigenvalues ev = eigenvalues(Mat::diag({3.0, -1.0, 0.5}));
  ASSERT_EQ(ev.real.size(), 3u);
  double sum = 0.0, prod = 1.0;
  for (std::size_t i = 0; i < 3; ++i) {
    sum += ev.real[i];
    prod *= ev.real[i];
    EXPECT_NEAR(ev.imag[i], 0.0, 1e-9);
  }
  EXPECT_NEAR(sum, 2.5, 1e-9);
  EXPECT_NEAR(prod, -1.5, 1e-9);
}

TEST(Eigenvalues, ComplexPair) {
  // Rotation-like matrix: eigenvalues a +- bi.
  const Mat a{{1, -2}, {2, 1}};
  const Eigenvalues ev = eigenvalues(a);
  ASSERT_EQ(ev.real.size(), 2u);
  EXPECT_NEAR(ev.real[0], 1.0, 1e-9);
  EXPECT_NEAR(std::abs(ev.imag[0]), 2.0, 1e-9);
}

TEST(Eigenvalues, TraceInvariantOnLargerMatrix) {
  Mat a(6, 6);
  // Deterministic pseudo-random-ish fill.
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      a(r, c) = std::sin(static_cast<double>(3 * r + 5 * c + 1));
  const Eigenvalues ev = eigenvalues(a);
  ASSERT_EQ(ev.real.size(), 6u);
  double sum_re = 0.0;
  for (double v : ev.real) sum_re += v;
  EXPECT_NEAR(sum_re, a.trace(), 1e-7);
}

TEST(Gemm, FromRowsStacksVectors) {
  const Mat m = Mat::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_THROW(Mat::from_rows({}), std::invalid_argument);
  EXPECT_THROW(Mat::from_rows({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(SpectralRadius, StableSystemBelowOne) {
  const Mat a{{0.5, 0.1}, {0.0, 0.3}};
  EXPECT_NEAR(spectral_radius(a), 0.5, 1e-9);
}

}  // namespace
}  // namespace oal::common
