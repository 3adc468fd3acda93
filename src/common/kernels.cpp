#include "common/kernels.h"

#include <algorithm>
#include <cmath>

// This file must be compiled with -ffp-contract=off (CMakeLists.txt): a
// contracted a*b+c rounds once instead of twice, so any variant whose target
// ISA has FMA would stop matching the baseline's bits.

namespace oal::common::kernels {

namespace {

// The kernel bodies are written once as always_inline function templates
// (helpers included, so no piece of a body can stay an out-of-line baseline
// function) and inlined into each variant's entry point below, so the
// compiler generates the loops for that entry point's target ISA.  Vector
// lanes only ever hold independent output elements, never terms of one
// reduction.

#define OAL_KERNEL_BODY inline __attribute__((always_inline))

// Vectors of kW doubles: one SSE2 (2) or AVX2 (4) register.
// GCC/clang vector-extension arithmetic is element-wise IEEE, so a lane
// computes exactly what the scalar expression would.  Loads and stores go
// through the unaligned, may_alias twin, which compiles to one unaligned
// vector move.
template <std::size_t kW>
struct Lanes {
  typedef double type __attribute__((vector_size(kW * sizeof(double))));
  typedef double unaligned
      __attribute__((vector_size(kW * sizeof(double)), aligned(sizeof(double)), may_alias));
};
constexpr std::size_t kRows = 4;  // rows per register block

/// The (kR x kV * kW) block of C = op(A) * B at (i, j), where op(A)(i, kk)
/// = a[i * ars + kk * aks]: the same body serves A (ars = lda, aks = 1) and
/// A^T (ars = 1, aks = lda).  The accumulators stay in registers across the
/// whole kk loop; each C element is a dot product accumulated in ascending
/// kk from 0.0.
template <std::size_t kW, std::size_t kR, std::size_t kV>
OAL_KERNEL_BODY void gemm_block(const Gemm& g, std::size_t ars, std::size_t aks, std::size_t i,
                                std::size_t j) {
  using V = typename Lanes<kW>::type;
  using U = typename Lanes<kW>::unaligned;
  const std::size_t k = g.k, ldb = g.ldb, ldc = g.ldc;
  const double* __restrict__ a = g.a;
  const double* __restrict__ b = g.b;
  double* __restrict__ c = g.c;
  V acc[kR][kV] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const U* bv = reinterpret_cast<const U*>(b + kk * ldb + j);
    for (std::size_t r = 0; r < kR; ++r) {
      const double ar = a[(i + r) * ars + kk * aks];
      for (std::size_t v = 0; v < kV; ++v) acc[r][v] += ar * bv[v];
    }
  }
  for (std::size_t r = 0; r < kR; ++r) {
    U* crow = reinterpret_cast<U*>(c + (i + r) * ldc + j);
    for (std::size_t v = 0; v < kV; ++v) crow[v] = acc[r][v];
  }
}

/// Every column of the kR rows of C starting at row i: full kVecs-vector
/// blocks, then single vectors, then the ragged columns one at a time with
/// the same ascending-kk accumulation.
template <std::size_t kW, std::size_t kVecs, std::size_t kR>
OAL_KERNEL_BODY void gemm_rows(const Gemm& g, std::size_t ars, std::size_t aks, std::size_t i) {
  const std::size_t n = g.n, k = g.k, ldb = g.ldb, ldc = g.ldc;
  const double* __restrict__ a = g.a;
  const double* __restrict__ b = g.b;
  double* __restrict__ c = g.c;
  std::size_t j = 0;
  for (; j + kVecs * kW <= n; j += kVecs * kW) gemm_block<kW, kR, kVecs>(g, ars, aks, i, j);
  for (; j + kW <= n; j += kW) gemm_block<kW, kR, 1>(g, ars, aks, i, j);
  for (std::size_t r = i; r < i + kR; ++r)
    for (std::size_t jj = j; jj < n; ++jj) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a[r * ars + kk * aks] * b[kk * ldb + jj];
      c[r * ldc + jj] = s;
    }
}

/// C = op(A) * B in blocks of kRows rows x kVecs vectors of kW doubles;
/// leftover rows go one at a time.
template <std::size_t kW, std::size_t kVecs>
OAL_KERNEL_BODY void gemm_body(const Gemm& g, std::size_t ars, std::size_t aks) {
  std::size_t i = 0;
  for (; i + kRows <= g.m; i += kRows) gemm_rows<kW, kVecs, kRows>(g, ars, aks, i);
  for (; i < g.m; ++i) gemm_rows<kW, kVecs, 1>(g, ars, aks, i);
}

OAL_KERNEL_BODY void col_sums_body(std::size_t rows, std::size_t cols,
                                   const double* __restrict__ a, std::size_t lda,
                                   double* __restrict__ s) {
  for (std::size_t c = 0; c < cols; ++c) s[c] = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* __restrict__ arow = a + r * lda;
    for (std::size_t c = 0; c < cols; ++c) s[c] += arow[c];
  }
}

OAL_KERNEL_BODY void adam_body(std::size_t n, const AdamStep& p, bool weight_decay,
                               double* __restrict__ w, double* __restrict__ m,
                               double* __restrict__ v, const double* __restrict__ g) {
  // Locals, so stores through w/m/v cannot force reloads of the parameters.
  const double lr = p.lr, l2 = p.l2, beta1 = p.beta1, beta2 = p.beta2, omb1 = p.omb1,
               omb2 = p.omb2, bc1 = p.bc1, bc2 = p.bc2, eps = p.eps;
  if (weight_decay) {
    for (std::size_t i = 0; i < n; ++i) {
      const double gi = g[i] + l2 * w[i];
      const double mi = beta1 * m[i] + omb1 * gi;
      const double vi = beta2 * v[i] + omb2 * gi * gi;
      m[i] = mi;
      v[i] = vi;
      w[i] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double gi = g[i];
      const double mi = beta1 * m[i] + omb1 * gi;
      const double vi = beta2 * v[i] + omb2 * gi * gi;
      m[i] = mi;
      v[i] = vi;
      w[i] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
    }
  }
}

// oal-lint: hot-path
/// rc_probe: kProbeLanes independent copies of the scalar transient probe,
/// one per vector lane, kProbeLanes / kW vectors of kW lanes per node.  Per
/// lane, every operation is the scalar one in the scalar order: leakage
/// max(p0 (1 + k (T - t0)), 0); tick power s * shape + leak; per substep
/// flow_i = P_i - sum_j g_ij (T_j - T_amb) in ascending j, then dT_i =
/// flow_i / C_i, then T_i += h dT_i for every node; the limit check after
/// each tick.  The tick, dt and substep arithmetic is scalar and shared by
/// every lane.  (T_j - T_amb) is computed once per substep instead of once
/// per (i, j) pair: the same value either way.  A lane keeps stepping after
/// it violates, until the pass ends.
///
/// The node-major lane state (temperatures, tick powers, rises, dT/dt)
/// lives in p.scratch for a node count known only at run time (kN == 0).
/// With kN fixed at compile time it is a local array in fully unrolled
/// loops, which the compiler keeps in registers, and the final
/// temperatures are copied to p.scratch at the end.
template <std::size_t kW, std::size_t kN>
OAL_KERNEL_BODY unsigned rc_probe_body(const RcProbe& p, const double* scale) {
  using V = typename Lanes<kW>::type;
  using U = typename Lanes<kW>::unaligned;
  typedef long long M __attribute__((vector_size(kW * sizeof(long long))));
  constexpr std::size_t kV = kProbeLanes / kW;
  static_assert(kV * kW == kProbeLanes, "lanes must fill whole vectors");
  const std::size_t n = kN ? kN : p.n;
  const double* __restrict__ g = p.g;
  V local[4 * (kN ? kN : 1) * kV];
  U* __restrict__ temp = kN ? reinterpret_cast<U*>(local) : reinterpret_cast<U*>(p.scratch);
  U* __restrict__ power = temp + n * kV;
  U* __restrict__ rise = power + n * kV;
  U* __restrict__ dtemp = rise + n * kV;
  V s[kV];
  for (std::size_t v = 0; v < kV; ++v) s[v] = reinterpret_cast<const U*>(scale)[v];
  const V zero = {};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t v = 0; v < kV; ++v) temp[i * kV + v] = zero + p.start_c[i];
  constexpr unsigned kAll = (1u << kProbeLanes) - 1u;
  M violated[kV] = {};
  unsigned mask = 0;
  double t = 0.0;
  while (t < p.horizon_s) {
    const double dt = std::min(1.0, p.horizon_s - t);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t v = 0; v < kV; ++v) {
        const V leak = p.leak_p0[i] * (1.0 + p.leak_k[i] * (temp[i * kV + v] - p.leak_t0_c));
        power[i * kV + v] = s[v] * p.shape_w[i] + (leak < 0.0 ? zero : leak);
      }
    const int substeps = std::max(1, static_cast<int>(std::ceil(dt / p.max_substep_s)));
    const double h = dt / substeps;
    for (int sub = 0; sub < substeps; ++sub) {
      for (std::size_t j = 0; j < n * kV; ++j) rise[j] = temp[j] - p.ambient_c;
      for (std::size_t i = 0; i < n; ++i) {
        V flow[kV];
        for (std::size_t v = 0; v < kV; ++v) flow[v] = power[i * kV + v];
        for (std::size_t j = 0; j < n; ++j) {
          const double gij = g[i * n + j];
          for (std::size_t v = 0; v < kV; ++v) flow[v] -= gij * rise[j * kV + v];
        }
        for (std::size_t v = 0; v < kV; ++v) dtemp[i * kV + v] = flow[v] / p.cap[i];
      }
      for (std::size_t j = 0; j < n * kV; ++j) temp[j] += h * dtemp[j];
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t v = 0; v < kV; ++v) violated[v] |= temp[i * kV + v] > p.limit_c[i];
    mask = 0;
    for (std::size_t v = 0; v < kV; ++v)
      for (std::size_t w = 0; w < kW; ++w)
        mask |= (violated[v][w] != 0 ? 1u : 0u) << (v * kW + w);
    if (mask == kAll) break;
    t += dt;
  }
  if (kN != 0)
    for (std::size_t j = 0; j < n * kV; ++j) reinterpret_cast<U*>(p.scratch)[j] = temp[j];
  return mask;
}

/// Node count of thermal::RcThermalNetwork::mobile_soc, the network every
/// benchmark and example runs: the one size with a register-resident body
/// (README.md, "Thermal budgeter", has the measured gain).
constexpr std::size_t kMobileSocNodes = 5;

template <std::size_t kW>
OAL_KERNEL_BODY unsigned rc_probe_sized(const RcProbe& p, const double* scale) {
  return p.n == kMobileSocNodes ? rc_probe_body<kW, kMobileSocNodes>(p, scale)
                                : rc_probe_body<kW, 0>(p, scale);
}

/// steady_probe: kProbeLanes independent copies of the scalar steady-state
/// probe (thermal::FixedPointSolver::temperatures_into, then the budgeter's
/// worst margin), one per vector lane, laid out like rc_probe's state.  Per
/// lane, every operation is the scalar one in the scalar order: rhs_p_j =
/// s * shape_j + c_j; row i of R * rhs_p accumulated from 0.0 in ascending
/// j; lu_apply's forward sweep (x_i -= L_ij x_j, ascending j < i), then its
/// backward sweep (x_i -= U_ij x_j, ascending j > i, then x_i /= U_ii) from
/// the last row up; T_i = T_amb + x_i; the worst margin T_i - limit_i from
/// -1e9, replaced only when strictly greater.  lu_apply's pivot gather x_i
/// = (R rhs_p)_piv[i] is folded into the product: lane row i computes row
/// piv[i] of R * rhs_p, the same value.
///
/// x and rhs_p live in p.scratch for a node count known only at run time
/// (kN == 0), in fully unrolled registers for a compile-time kN, which
/// copies the temperatures to p.scratch at the end.
template <std::size_t kW, std::size_t kN>
OAL_KERNEL_BODY unsigned steady_probe_body(const SteadyProbe& p, const double* scale) {
  using V = typename Lanes<kW>::type;
  using U = typename Lanes<kW>::unaligned;
  constexpr std::size_t kV = kProbeLanes / kW;
  static_assert(kV * kW == kProbeLanes, "lanes must fill whole vectors");
  const std::size_t n = kN ? kN : p.n;
  const double* __restrict__ r = p.r;
  const double* __restrict__ lu = p.lu;
  V local[2 * (kN ? kN : 1) * kV];
  U* __restrict__ x = kN ? reinterpret_cast<U*>(local) : reinterpret_cast<U*>(p.scratch);
  U* __restrict__ rhs_p = x + n * kV;
  V s[kV];
  for (std::size_t v = 0; v < kV; ++v) s[v] = reinterpret_cast<const U*>(scale)[v];
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t v = 0; v < kV; ++v) rhs_p[j * kV + v] = s[v] * p.shape_w[j] + p.leak_c[j];
  for (std::size_t i = 0; i < n; ++i) {
    const double* __restrict__ row = r + p.piv[i] * n;
    V acc[kV] = {};
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t v = 0; v < kV; ++v) acc[v] += row[j] * rhs_p[j * kV + v];
    for (std::size_t v = 0; v < kV; ++v) x[i * kV + v] = acc[v];
  }
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      for (std::size_t v = 0; v < kV; ++v) x[i * kV + v] -= lu[i * n + j] * x[j * kV + v];
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j)
      for (std::size_t v = 0; v < kV; ++v) x[i * kV + v] -= lu[i * n + j] * x[j * kV + v];
    for (std::size_t v = 0; v < kV; ++v) x[i * kV + v] /= lu[i * n + i];
  }
  const V zero = {};
  V worst[kV];
  for (std::size_t v = 0; v < kV; ++v) worst[v] = zero - 1e9;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t v = 0; v < kV; ++v) {
      const V t = p.ambient_c + x[i * kV + v];
      x[i * kV + v] = t;
      const V margin = t - p.limit_c[i];
      worst[v] = margin > worst[v] ? margin : worst[v];
    }
  double lane_worst[kProbeLanes];
  for (std::size_t v = 0; v < kV; ++v) reinterpret_cast<U*>(lane_worst)[v] = worst[v];
  unsigned mask = 0;
  for (std::size_t l = 0; l < kProbeLanes; ++l) mask |= (lane_worst[l] < 0.0 ? 0u : 1u) << l;
  if (kN != 0)
    for (std::size_t j = 0; j < n * kV; ++j) reinterpret_cast<U*>(p.scratch)[j] = x[j];
  return mask;
}

template <std::size_t kW>
OAL_KERNEL_BODY unsigned steady_probe_sized(const SteadyProbe& p, const double* scale) {
  return p.n == kMobileSocNodes ? steady_probe_body<kW, kMobileSocNodes>(p, scale)
                                : steady_probe_body<kW, 0>(p, scale);
}
// oal-lint: hot-path-end

// ---- Transcendental row kernels ---------------------------------------------
//
// tanh, exp and log of every element of a row, for the training activations
// and the softmax cross-entropy (ml/mlp.cpp).  Each is a fixed sequence of
// IEEE additions, multiplications and divisions per lane (no FMA, no
// table lookups, no libm call), so a result depends only on this file: the
// vector lanes, the one-element tail and the scalar entry points all run the
// same lane body (Lanes<1> for the tail and the scalar entries) and agree bit
// for bit.  Range reduction is Cody-Waite: x = n ln2 + r with ln2 split into
// a 32-bit head (n * kLn2Hi is exact for |n| < 2^21) and a tail.  The
// polynomials are plain Taylor series with correctly rounded coefficients,
// long enough that truncation stays far below rounding.  The error bounds in
// kernels.h are checked by tests/test_kernels.cpp against long double.

template <std::size_t kW>
struct LaneBits {
  typedef long long type __attribute__((vector_size(kW * sizeof(long long))));
  typedef unsigned long long utype __attribute__((vector_size(kW * sizeof(long long))));
};

constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// Adding 1.5 * 2^52 to a double of magnitude below 2^51 rounds it to the
/// nearest integer (ties to even), and the low bits of the sum then hold
/// that integer in two's complement.
constexpr double kShifter = 0x1.8p52;
constexpr long long kShifterBits = 0x4338000000000000LL;
constexpr long long kSignBit = static_cast<long long>(0x8000000000000000ULL);

// The lane bodies take and return their vectors by reference: a 256-bit
// vector passed by value would cross the (baseline) function ABI, even though
// every body is inlined into an entry point of the vector's ISA.

/// out = 2^k for integral k in [-1022, 1023], built from its exponent bits
/// (unsigned lanes: a NaN k wraps instead of overflowing a signed shift, and
/// the NaN reaches the result through the other factor).
template <std::size_t kW>
OAL_KERNEL_BODY void pow2_lanes(const typename Lanes<kW>::type& k, typename Lanes<kW>::type& out) {
  using V = typename Lanes<kW>::type;
  using Ui = typename LaneBits<kW>::utype;
  out = (V)((((Ui)(k + kShifter) - static_cast<unsigned long long>(kShifterBits)) + 1023) << 52);
}

/// x = n ln2 + r + rlo with n integral.
template <std::size_t kW>
OAL_KERNEL_BODY void reduce_ln2(const typename Lanes<kW>::type& x, typename Lanes<kW>::type& n,
                                typename Lanes<kW>::type& r, typename Lanes<kW>::type& rlo) {
  using V = typename Lanes<kW>::type;
  n = (x * kLog2e + kShifter) - kShifter;
  const V hi = x - n * kLn2Hi, c = n * kLn2Lo;
  r = hi - c;
  rlo = (hi - r) - c;
}

/// out = exp(r) - 1 = r + r^2 q(r) for |r| <= ln2 / 2 (plus rounding), q
/// the Taylor series 1/2! + r/3! + ... + r^11/13! in Estrin form.  The first
/// omitted term, r^14/14!, is below 2^-60 relative.
template <std::size_t kW>
OAL_KERNEL_BODY void expm1_reduced(const typename Lanes<kW>::type& r,
                                   const typename Lanes<kW>::type& rlo,
                                   typename Lanes<kW>::type& out) {
  using V = typename Lanes<kW>::type;
  const V r2 = r * r, r4 = r2 * r2, r8 = r4 * r4;
  const V a0 = 1.0 / 2.0 + r * (1.0 / 6.0);
  const V a1 = 1.0 / 24.0 + r * (1.0 / 120.0);
  const V a2 = 1.0 / 720.0 + r * (1.0 / 5040.0);
  const V a3 = 1.0 / 40320.0 + r * (1.0 / 362880.0);
  const V a4 = 1.0 / 3628800.0 + r * (1.0 / 39916800.0);
  const V a5 = 1.0 / 479001600.0 + r * (1.0 / 6227020800.0);
  const V q = (a0 + r2 * a1) + r4 * (a2 + r2 * a3) + r8 * (a4 + r2 * a5);
  out = r + (r2 * q + rlo);
}

/// exp x = 2^n (1 + expm1(r)) with x = n ln2 + r.
struct ExpOp {
  template <std::size_t kW>
  static OAL_KERNEL_BODY void lanes(typename Lanes<kW>::type& x) {
    using V = typename Lanes<kW>::type;
    // Below -746 every result rounds to +0, above 710 to +inf; clamping keeps
    // n inside the exponent range.  A NaN fails both tests and propagates.
    const V zero = {};
    x = x < -746.0 ? zero - 746.0 : x;
    x = x > 710.0 ? zero + 710.0 : x;
    V n, r, rlo, pm, lo, hi;
    reduce_ln2<kW>(x, n, r, rlo);
    expm1_reduced<kW>(r, rlo, pm);
    // 2^n as two factors, so near-overflow and subnormal results still scale
    // with a single rounding (the first product is exact).
    const V h = (n * 0.5 + kShifter) - kShifter;
    pow2_lanes<kW>(h, lo);
    pow2_lanes<kW>(n - h, hi);
    x = (1.0 + pm) * lo * hi;
  }
};

/// tanh|x| = t / (t + 2) with t = expm1(2|x|), then x's sign.  With t >= 0
/// the quotient scales t's relative error by 2 / (t + 2) <= 1 and keeps +0.
/// From |x| = 22 on, tanh rounds to 1; the clamp keeps t finite.
struct TanhOp {
  template <std::size_t kW>
  static OAL_KERNEL_BODY void lanes(typename Lanes<kW>::type& x) {
    using V = typename Lanes<kW>::type;
    using I = typename LaneBits<kW>::type;
    const V zero = {};
    const I sign = (I)x & kSignBit;
    const V ax = (V)((I)x & ~kSignBit);
    V y = 2.0 * ax;
    y = y > 44.0 ? zero + 44.0 : y;
    V n, r, rlo, pm, scale;
    reduce_ln2<kW>(y, n, r, rlo);
    expm1_reduced<kW>(r, rlo, pm);
    pow2_lanes<kW>(n, scale);
    const V t = scale * pm + (scale - 1.0);
    V m = t / (t + 2.0);
    m = ax >= 22.0 ? zero + 1.0 : m;
    x = (V)((I)m | sign);
  }
};

/// log x = e ln2 + log m with x = 2^e m, m in [sqrt(1/2), sqrt(2)).  With
/// f = m - 1 and s = f / (2 + f), log m = 2 atanh s = f - (f^2/2 - s (f^2/2
/// + R)), R = sum over k of 2 s^2k / (2k + 1), k = 1..10 (the omitted rest is
/// below 2^-62 relative), split into its even and odd powers of s^2.
struct LogOp {
  template <std::size_t kW>
  static OAL_KERNEL_BODY void lanes(typename Lanes<kW>::type& x) {
    using V = typename Lanes<kW>::type;
    using I = typename LaneBits<kW>::type;
    using Ui = typename LaneBits<kW>::utype;
    const V zero = {};
    const I subnormal = x < 0x1p-1022;
    const V xs = subnormal ? x * 0x1p54 : x;
    const Ui bits = (Ui)xs;
    V m = (V)((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    const I high = m > 0x1.6a09e667f3bcdp0;  // sqrt(2)
    m = high ? m * 0.5 : m;
    // high and subnormal are all-ones (-1) masks.
    const I e = (I)(bits >> 52) - 1023 - high - (subnormal & 54);
    const V k = (V)(e + kShifterBits) - kShifter;
    const V f = m - 1.0;
    const V s = f / (2.0 + f);
    const V z = s * s, w = z * z;
    const V odd =
        z * (2.0 / 3 + w * (2.0 / 7 + w * (2.0 / 11 + w * (2.0 / 15 + w * (2.0 / 19)))));
    const V even =
        w * (2.0 / 5 + w * (2.0 / 9 + w * (2.0 / 13 + w * (2.0 / 17 + w * (2.0 / 21)))));
    const V hfsq = 0.5 * f * f;
    V out = k * kLn2Hi - ((hfsq - (s * (hfsq + (odd + even)) + k * kLn2Lo)) - f);
    const V inf = zero + __builtin_inf();
    out = x == inf ? inf : out;
    x = x > 0.0 ? out : (x == 0.0 ? -inf : zero + __builtin_nan(""));
  }
};

/// y[i] = Op(x[i]): whole vectors of kW, then the tail one element at a time
/// through the same body at width 1.  y may be x.
template <class Op, std::size_t kW>
OAL_KERNEL_BODY void map_row(std::size_t n, const double* x, double* y) {
  using V = typename Lanes<kW>::type;
  using U = typename Lanes<kW>::unaligned;
  using V1 = typename Lanes<1>::type;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V v = *reinterpret_cast<const U*>(x + i);
    Op::template lanes<kW>(v);
    *reinterpret_cast<U*>(y + i) = v;
  }
  for (; i < n; ++i) {
    V1 v = {x[i]};
    Op::template lanes<1>(v);
    y[i] = v[0];
  }
}

// Each variant's out-of-line entry points carry its target attribute, and
// the force-inlined bodies are compiled for that ISA inside them.

namespace baseline {
void gemm_nn(const Gemm& g) { gemm_body<2, 2>(g, g.lda, 1); }
void gemm_tn(const Gemm& g) { gemm_body<2, 2>(g, 1, g.lda); }
void col_sums(std::size_t rows, std::size_t cols, const double* a, std::size_t lda, double* s) {
  col_sums_body(rows, cols, a, lda, s);
}
void adam(std::size_t n, const AdamStep& p, bool weight_decay, double* w, double* m, double* v,
          const double* g) {
  adam_body(n, p, weight_decay, w, m, v, g);
}
unsigned rc_probe(const RcProbe& p, const double* scale) { return rc_probe_sized<2>(p, scale); }
unsigned steady_probe(const SteadyProbe& p, const double* scale) {
  return steady_probe_sized<2>(p, scale);
}
void tanh_row(std::size_t n, const double* x, double* y) { map_row<TanhOp, 2>(n, x, y); }
void exp_row(std::size_t n, const double* x, double* y) { map_row<ExpOp, 2>(n, x, y); }
void log_row(std::size_t n, const double* x, double* y) { map_row<LogOp, 2>(n, x, y); }
constexpr KernelTable kTable{"baseline", gemm_nn, gemm_tn, col_sums, adam,
                             rc_probe, steady_probe, tanh_row, exp_row, log_row};
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
#define OAL_KERNELS_X86 1

#define OAL_AVX2 __attribute__((target("avx2")))
namespace avx2 {
OAL_AVX2 void gemm_nn(const Gemm& g) { gemm_body<4, 2>(g, g.lda, 1); }
OAL_AVX2 void gemm_tn(const Gemm& g) { gemm_body<4, 2>(g, 1, g.lda); }
OAL_AVX2 void col_sums(std::size_t rows, std::size_t cols, const double* a, std::size_t lda,
                       double* s) {
  col_sums_body(rows, cols, a, lda, s);
}
OAL_AVX2 void adam(std::size_t n, const AdamStep& p, bool weight_decay, double* w, double* m,
                   double* v, const double* g) {
  adam_body(n, p, weight_decay, w, m, v, g);
}
OAL_AVX2 unsigned rc_probe(const RcProbe& p, const double* scale) {
  return rc_probe_sized<4>(p, scale);
}
OAL_AVX2 unsigned steady_probe(const SteadyProbe& p, const double* scale) {
  return steady_probe_sized<4>(p, scale);
}
OAL_AVX2 void tanh_row(std::size_t n, const double* x, double* y) { map_row<TanhOp, 4>(n, x, y); }
OAL_AVX2 void exp_row(std::size_t n, const double* x, double* y) { map_row<ExpOp, 4>(n, x, y); }
OAL_AVX2 void log_row(std::size_t n, const double* x, double* y) { map_row<LogOp, 4>(n, x, y); }
constexpr KernelTable kTable{"avx2", gemm_nn, gemm_tn, col_sums, adam,
                             rc_probe, steady_probe, tanh_row, exp_row, log_row};
}  // namespace avx2
#undef OAL_AVX2
#endif

#undef OAL_KERNEL_BODY

std::vector<KernelTable> detect() {
  std::vector<KernelTable> v{baseline::kTable};
#ifdef OAL_KERNELS_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) v.push_back(avx2::kTable);
#endif
  return v;
}

}  // namespace

namespace detail {
const std::vector<KernelTable>& supported_variants() {
  static const std::vector<KernelTable> variants = detect();
  return variants;
}
}  // namespace detail

const KernelTable& active() {
  static const KernelTable& table = detail::supported_variants().back();
  return table;
}

// The scalar entries are rows of one element at width 1: the tail body.
double tanh_scalar(double x) {
  map_row<TanhOp, 1>(1, &x, &x);
  return x;
}
double exp_scalar(double x) {
  map_row<ExpOp, 1>(1, &x, &x);
  return x;
}
double log_scalar(double x) {
  map_row<LogOp, 1>(1, &x, &x);
  return x;
}

}  // namespace oal::common::kernels
