// Every ISA variant of the training kernels (common/kernels.h) must produce
// exactly the bits of the baseline variant, and the baseline must match the
// plain ascending-index scalar loops.  Shapes are ragged on purpose: 1-16
// rows and 1-41 columns (every width, so the IL policy's 4/5/13/19-class
// heads, its 24-wide trunk and the 41-wide fused head block are all
// covered), with row strides wider than the logical widths.  The
// transcendental rows (tanh/exp/log) are held to the baseline bit for bit on
// every length from 1 to 41 and on 10^6 inputs over the ranges training
// feeds them, and to a long double reference at the ULP bounds kernels.h
// documents.  The transient probe kernel (rc_probe) is held to the scalar
// probe in test_thermal.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"

namespace oal::common::kernels {
namespace {

const std::size_t kInner[] = {1, 2, 3, 5, 8, 9, 12, 13, 19, 24};
constexpr std::size_t kMaxRows = 16;
constexpr std::size_t kMaxCols = 41;
constexpr std::size_t kPad = 3;  // row-stride slack

std::vector<double> random_buffer(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

const KernelTable& baseline() { return detail::supported_variants().front(); }

TEST(Kernels, VariantTableIsBaselineFirstAndActiveLast) {
  const auto& variants = detail::supported_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(std::string(variants.front().name), "baseline");
  EXPECT_EQ(&active(), &variants.back());
  for (const auto& v : variants) std::printf("kernel variant supported: %s\n", v.name);
}

TEST(Kernels, BaselineGemmMatchesScalarDotProducts) {
  Rng rng(3);
  for (std::size_t m = 1; m <= kMaxRows; ++m)
    for (std::size_t n = 1; n <= kMaxCols; ++n)
      for (std::size_t k : kInner) {
        const std::vector<double> a = random_buffer(m * k, rng);
        const std::vector<double> at = random_buffer(k * m, rng);
        const std::vector<double> b = random_buffer(k * n, rng);
        std::vector<double> nn(m * n), tn(m * n), want_nn(m * n), want_tn(m * n);
        baseline().gemm_nn({m, n, k, a.data(), k, b.data(), n, nn.data(), n});
        baseline().gemm_tn({m, n, k, at.data(), m, b.data(), n, tn.data(), n});
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0, t = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
              s += a[i * k + kk] * b[kk * n + j];
              t += at[kk * m + i] * b[kk * n + j];
            }
            want_nn[i * n + j] = s;
            want_tn[i * n + j] = t;
          }
        ASSERT_TRUE(bits_equal(nn, want_nn)) << "gemm_nn " << m << "x" << n << "x" << k;
        ASSERT_TRUE(bits_equal(tn, want_tn)) << "gemm_tn " << m << "x" << n << "x" << k;
      }
}

TEST(Kernels, GemmDoesNotSkipZeros) {
  // One-hot rows times a weight matrix must pick the matching weight row
  // exactly, and a NaN weight behind a zero input must still reach its
  // output: a zero-skip would change the accumulation the bitwise contract
  // fixes (0 * NaN is NaN).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t m = 4, n = 8, k = 3;
  std::vector<double> onehot(m * k, 0.0), w(k * n);
  for (std::size_t i = 0; i < m; ++i) onehot[i * k + 1] = 1.0;
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j) w[kk * n + j] = kk == 2 && j % 2 == 1 ? nan : 10.0 * kk + j;
  for (const KernelTable& v : detail::supported_variants()) {
    std::vector<double> y(m * n, -1.0);
    v.gemm_nn({m, n, k, onehot.data(), k, w.data(), n, y.data(), n});
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (j % 2 == 1) {
          EXPECT_TRUE(std::isnan(y[i * n + j])) << v.name << " row " << i << " col " << j;
        } else {
          EXPECT_EQ(y[i * n + j], 10.0 + static_cast<double>(j)) << v.name << " col " << j;
        }
      }
  }
}

TEST(Kernels, EveryVariantGemmIsBitIdenticalToBaseline) {
  Rng rng(5);
  for (std::size_t m = 1; m <= kMaxRows; ++m)
    for (std::size_t n = 1; n <= kMaxCols; ++n)
      for (std::size_t k : kInner) {
        // Strided operands: lda/ldb/ldc exceed the logical widths.
        const std::size_t lda = k + kPad, ldat = m + kPad, ldb = n + kPad, ldc = n + kPad;
        const std::vector<double> a = random_buffer(m * lda, rng);
        const std::vector<double> at = random_buffer(k * ldat, rng);
        const std::vector<double> b = random_buffer(k * ldb, rng);
        std::vector<double> want_nn(m * ldc, -1.0), want_tn(m * ldc, -1.0);
        baseline().gemm_nn({m, n, k, a.data(), lda, b.data(), ldb, want_nn.data(), ldc});
        baseline().gemm_tn({m, n, k, at.data(), ldat, b.data(), ldb, want_tn.data(), ldc});
        for (const KernelTable& v : detail::supported_variants()) {
          std::vector<double> nn(m * ldc, -1.0), tn(m * ldc, -1.0);
          v.gemm_nn({m, n, k, a.data(), lda, b.data(), ldb, nn.data(), ldc});
          v.gemm_tn({m, n, k, at.data(), ldat, b.data(), ldb, tn.data(), ldc});
          ASSERT_TRUE(bits_equal(nn, want_nn)) << v.name << " gemm_nn " << m << "x" << n << "x"
                                               << k;
          ASSERT_TRUE(bits_equal(tn, want_tn)) << v.name << " gemm_tn " << m << "x" << n << "x"
                                               << k;
        }
      }
}

TEST(Kernels, EveryVariantColSumsIsBitIdenticalToBaseline) {
  Rng rng(7);
  for (std::size_t rows = 1; rows <= kMaxRows; ++rows)
    for (std::size_t cols = 1; cols <= kMaxCols; ++cols) {
      const std::size_t lda = cols + kPad;
      const std::vector<double> a = random_buffer(rows * lda, rng);
      std::vector<double> want(cols);
      for (std::size_t c = 0; c < cols; ++c) {
        double s = 0.0;
        for (std::size_t r = 0; r < rows; ++r) s += a[r * lda + c];
        want[c] = s;
      }
      for (const KernelTable& v : detail::supported_variants()) {
        std::vector<double> got(cols, -1.0);
        v.col_sums(rows, cols, a.data(), lda, got.data());
        ASSERT_TRUE(bits_equal(got, want)) << v.name << " col_sums " << rows << "x" << cols;
      }
    }
}

TEST(Kernels, EveryVariantAdamIsBitIdenticalToBaseline) {
  Rng rng(11);
  const double beta1 = 0.9, beta2 = 0.999;
  for (std::size_t n = 1; n <= 3 * kMaxCols; ++n)
    for (bool decay : {true, false}) {
      const std::vector<double> w0 = random_buffer(n, rng);
      std::vector<std::vector<double>> grads;
      for (int t = 0; t < 4; ++t) grads.push_back(random_buffer(n, rng));
      std::vector<double> want_w, want_m, want_v;
      for (const KernelTable& v : detail::supported_variants()) {
        std::vector<double> w = w0, mom(n, 0.0), var(n, 0.0);
        double beta1_t = 1.0, beta2_t = 1.0;
        for (std::size_t t = 1; t <= grads.size(); ++t) {
          beta1_t *= beta1;
          beta2_t *= beta2;
          const AdamStep p{2.5e-2, 1e-5, beta1, beta2, 1.0 - beta1, 1.0 - beta2,
                           1.0 - beta1_t, 1.0 - beta2_t, 1e-8};
          v.adam(n, p, decay, w.data(), mom.data(), var.data(), grads[t - 1].data());
        }
        if (&v == &baseline()) {
          want_w = w;
          want_m = mom;
          want_v = var;
          continue;
        }
        ASSERT_TRUE(bits_equal(w, want_w)) << v.name << " adam w, n " << n;
        ASSERT_TRUE(bits_equal(mom, want_m)) << v.name << " adam m, n " << n;
        ASSERT_TRUE(bits_equal(var, want_v)) << v.name << " adam v, n " << n;
      }
    }
}

// ---- Transcendental rows ----------------------------------------------------

using RowKernel = void (*KernelTable::*)(std::size_t, const double*, double*);

struct Transcendental {
  const char* name;
  RowKernel row;
  double (*scalar)(double);
  long double (*reference)(long double);
  double max_ulp;  ///< the bound documented in kernels.h
  /// The inputs training feeds the kernel: hidden pre-activations, shifted
  /// logits (<= 0), clamped label probabilities.
  double train_lo, train_hi;
  /// One input drawn from the kernel's whole finite domain.
  double (*wide_input)(Rng& rng);
};

const Transcendental kTranscendentals[] = {
    {"tanh", &KernelTable::tanh_row, tanh_scalar, [](long double x) { return std::tanh(x); }, 3.0,
     -30.0, 30.0,
     [](Rng& rng) {
       const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
       return sign * std::exp2(rng.uniform(-1000.0, 5.0));
     }},
    {"exp", &KernelTable::exp_row, exp_scalar, [](long double x) { return std::exp(x); }, 1.0, -60.0,
     0.0, [](Rng& rng) { return rng.uniform(-745.0, 709.7); }},
    {"log", &KernelTable::log_row, log_scalar, [](long double x) { return std::log(x); }, 1.0, 1e-12,
     1.0, [](Rng& rng) { return std::exp2(rng.uniform(-1074.0, 1023.0)); }},
};

/// |got - ref| in units of the last place of ref's binade (subnormal
/// spacing below 2^-1022).
long double ulp_error(double got, long double ref) {
  int e = 0;
  std::frexp(ref, &e);
  const long double ulp = std::max(std::ldexp(1.0L, e - 53), std::ldexp(1.0L, -1074));
  return std::fabs(static_cast<long double>(got) - ref) / ulp;
}

TEST(Kernels, EveryVariantTranscendentalRowIsBitIdenticalToBaseline) {
  Rng rng(13);
  for (const Transcendental& f : kTranscendentals) {
    // Every length up to the 41-wide logits row, so every vector/tail split
    // is exercised; written out of place and in place.
    for (std::size_t n = 1; n <= kMaxCols; ++n) {
      std::vector<double> x(n);
      for (double& v : x) v = rng.uniform(f.train_lo, f.train_hi);
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = f.scalar(x[i]);
      for (const KernelTable& v : detail::supported_variants()) {
        std::vector<double> y(n, -1.0), inplace = x;
        (v.*f.row)(n, x.data(), y.data());
        (v.*f.row)(n, inplace.data(), inplace.data());
        ASSERT_TRUE(bits_equal(y, want)) << v.name << " " << f.name << ", n " << n;
        ASSERT_TRUE(bits_equal(inplace, want)) << v.name << " in-place " << f.name << ", n " << n;
      }
    }
    constexpr std::size_t kSamples = 1000000;
    std::vector<double> x(kSamples), want(kSamples);
    for (double& v : x) v = rng.uniform(f.train_lo, f.train_hi);
    (baseline().*f.row)(kSamples, x.data(), want.data());
    for (const KernelTable& v : detail::supported_variants()) {
      std::vector<double> y(kSamples);
      (v.*f.row)(kSamples, x.data(), y.data());
      ASSERT_TRUE(bits_equal(y, want)) << v.name << " " << f.name << " on training inputs";
    }
  }
}

TEST(Kernels, TranscendentalRowsStayWithinDocumentedUlpBounds) {
  // Each kernel on 10^6 training-range inputs and 10^6 inputs over its whole
  // finite domain: tanh on +-2^[-1000, 5], exp on [-745, 709.7], log on
  // 2^[-1074, 1023] (subnormals included).
  Rng rng(17);
  for (const Transcendental& f : kTranscendentals) {
    constexpr std::size_t kSamples = 1000000;
    std::vector<double> x(2 * kSamples), y(2 * kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
      x[i] = rng.uniform(f.train_lo, f.train_hi);
      x[kSamples + i] = f.wide_input(rng);
    }
    (active().*f.row)(x.size(), x.data(), y.data());
    long double worst = 0.0L;
    double worst_x = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const long double err = ulp_error(y[i], f.reference(x[i]));
      if (err > worst) {
        worst = err;
        worst_x = x[i];
      }
    }
    std::printf("%s: max error %.3Lf ULP at %.17g (bound %.1f)\n", f.name, worst, worst_x,
                f.max_ulp);
    EXPECT_LE(worst, f.max_ulp) << f.name << " at " << worst_x;
  }
}

TEST(Kernels, TranscendentalRowsHandleSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; };
  for (const KernelTable& v : detail::supported_variants()) {
    // Every case runs as lane 0 of a full vector and as a tail element.
    const auto run = [&](RowKernel row, double x) {
      std::vector<double> in(5, x), out(5);
      (v.*row)(in.size(), in.data(), out.data());
      for (double o : out) EXPECT_TRUE(same(o, out[0]) || (std::isnan(o) && std::isnan(out[0])));
      return out[0];
    };
    SCOPED_TRACE(v.name);
    const RowKernel th = &KernelTable::tanh_row, ex = &KernelTable::exp_row,
                    lg = &KernelTable::log_row;
    EXPECT_TRUE(same(run(th, 0.0), 0.0));
    EXPECT_TRUE(same(run(th, -0.0), -0.0));
    EXPECT_TRUE(same(run(th, 1e-300), 1e-300));
    EXPECT_TRUE(same(run(th, -denorm_min), -denorm_min));
    for (double x : {22.0, 22.5, 40.0, 1e300, inf}) {
      EXPECT_TRUE(same(run(th, x), 1.0)) << x;
      EXPECT_TRUE(same(run(th, -x), -1.0)) << -x;
    }
    EXPECT_TRUE(std::isnan(run(th, nan)));
    EXPECT_TRUE(same(run(ex, 0.0), 1.0));
    EXPECT_TRUE(same(run(ex, -0.0), 1.0));
    EXPECT_TRUE(same(run(ex, inf), inf));
    EXPECT_TRUE(same(run(ex, 709.8), inf));
    const double near_max = run(ex, 709.78);  // just below ln(DBL_MAX): finite
    EXPECT_TRUE(std::isfinite(near_max) && near_max > 1.79e308) << near_max;
    EXPECT_TRUE(same(run(ex, -745.0), denorm_min));
    // Below ln(2^-1075) ~ -745.1332 every result rounds to +0.
    for (double x : {-745.14, -745.2, -746.0, -800.0, -1e300, -inf})
      EXPECT_TRUE(same(run(ex, x), 0.0)) << x;
    EXPECT_TRUE(std::isnan(run(ex, nan)));
    EXPECT_TRUE(same(run(lg, 1.0), 0.0));
    EXPECT_TRUE(same(run(lg, 0.0), -inf));
    EXPECT_TRUE(same(run(lg, -0.0), -inf));
    EXPECT_TRUE(same(run(lg, inf), inf));
    EXPECT_TRUE(std::isnan(run(lg, -1.0)));
    EXPECT_TRUE(std::isnan(run(lg, -inf)));
    EXPECT_TRUE(std::isnan(run(lg, nan)));
    EXPECT_NEAR(run(lg, denorm_min), -744.44007192138126, 1e-12);
  }
}

}  // namespace
}  // namespace oal::common::kernels
