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

TEST(Mat, Identity) {
  const Mat i = Mat::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

TEST(Mat, MatVecProduct) {
  const Mat a{{1, 2}, {3, 4}};
  const Vec v = a * Vec{1.0, -1.0};
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
}

TEST(Mat, SizeMismatchThrows) {
  const Mat a(2, 3);
  const Vec bad{1.0, 2.0};
  EXPECT_THROW(a * bad, std::invalid_argument);
}

TEST(VecOps, Dot) {
  const Vec a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
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
  for (std::size_t c = 0; c < 3; ++c) {
    const Vec col{ai(0, c), ai(1, c), ai(2, c)};
    const Vec prod = a * col;
    for (std::size_t r = 0; r < 3; ++r) EXPECT_NEAR(prod[r], r == c ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Cholesky, FactorReconstructs) {
  const Mat a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
  const Mat l = cholesky(a);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      double rec = 0.0;  // (L L^T)(r, c)
      for (std::size_t k = 0; k < 3; ++k) rec += l(r, k) * l(c, k);
      EXPECT_NEAR(rec, a(r, c), 1e-12);
    }
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
  const Eigenvalues ev = eigenvalues(Mat{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 0.5}});
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

TEST(SpectralRadius, StableSystemBelowOne) {
  const Mat a{{0.5, 0.1}, {0.0, 0.3}};
  EXPECT_NEAR(spectral_radius(a), 0.5, 1e-9);
}

}  // namespace
}  // namespace oal::common
