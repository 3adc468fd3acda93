// Raw-pointer numeric kernels with runtime ISA dispatch.
//
// Two hot paths run through this table.  The minibatch trainers
// (ml/mlp.cpp) and the Adam optimizer spend their time in seven small loops:
// two GEMM shapes, a column-sum reduction, Adam's per-parameter update and
// the tanh/exp/log rows of the activations and the softmax cross-entropy
// (the repo's own polynomials, so trained bits do not depend on the host
// libm).
// The two thermal budgets (thermal/power_budget.cpp) spend their time
// evaluating several candidate power scales at once: the transient budget
// simulates an RC network (rc_probe), the steady-state budget solves the
// power-temperature fixed point (steady_probe).  One search driver runs
// both.  Each kernel is compiled in two ISA variants (baseline x86-64
// and AVX2) and the widest one the host supports is chosen once, on first
// use.  There is no build option or environment variable: the choice cannot
// change results, because every variant performs the same IEEE-754
// operations in the same order and only packs independent output elements
// (or independent probes) into wider vector lanes.  Two rules keep that true:
//   * no reduction is reassociated — each output element accumulates its
//     terms in ascending index order starting from its scalar start value,
//     exactly like the scalar loop, whatever the vector width;
//   * no multiply-add is contracted into an FMA.  The translation unit that
//     holds the variants is compiled with -ffp-contract=off (see
//     CMakeLists.txt), because a contracted a*b+c rounds once instead of
//     twice.
// tests/test_kernels.cpp runs every supported variant of the training
// kernels on ragged shapes and asserts bit equality with the baseline, and
// holds the tanh/exp/log rows to their documented ULP bounds;
// tests/test_thermal.cpp holds every variant of rc_probe and steady_probe to
// the scalar budgets bit for bit.
#pragma once

#include <cstddef>
#include <vector>

namespace oal::common::kernels {

/// Adam hyper-parameters for one step, bias corrections included.
struct AdamStep {
  double lr;
  double l2;    ///< weight decay folded into the gradient (weights only)
  double beta1;
  double beta2;
  double omb1;  ///< 1 - beta1
  double omb2;  ///< 1 - beta2
  double bc1;   ///< 1 - beta1^t
  double bc2;   ///< 1 - beta2^t
  double eps;
};

/// Operands of one GEMM producing C (m x n).  Matrices are row-major with
/// explicit row strides (ld*), so callers can address row blocks and column
/// slices of a larger buffer without copying.
struct Gemm {
  std::size_t m, n, k;
  const double* a;
  std::size_t lda;
  const double* b;
  std::size_t ldb;
  double* c;
  std::size_t ldc;
};

/// Candidate power scales one rc_probe call simulates side by side.
constexpr std::size_t kProbeLanes = 4;

/// Operands of one lane-parallel transient probe of an n-node RC thermal
/// network C dT/dt = P - G (T - T_amb).  Every lane starts from the same
/// temperatures and injects its own constant dynamic power scale[l] *
/// shape_w plus leakage max(p0 (1 + k (T - t0)), 0) refreshed from the
/// lane's temperatures at the start of every tick.  Ticks are 1 s long
/// (the last one is cut to the horizon) and each is stepped in
/// max(1, ceil(dt / max_substep_s)) equal forward-Euler substeps, like
/// thermal::RcThermalNetwork::step.  Arrays are n long and G is row-major.
struct RcProbe {
  std::size_t n;
  const double* g;        ///< conductance, n x n
  const double* cap;      ///< heat capacities
  double ambient_c;
  const double* leak_p0;  ///< leakage at t0
  const double* leak_k;   ///< relative leakage growth per degree
  double leak_t0_c;
  const double* limit_c;  ///< a lane violates once a node exceeds its limit
  const double* start_c;
  const double* shape_w;
  double horizon_s;       ///< finite and > 0
  double max_substep_s;   ///< > 0, with ceil(1 / max_substep_s) an int
  /// 4 * n * kProbeLanes doubles, any alignment.  On return the first
  /// n * kProbeLanes hold the temperatures after the last simulated tick,
  /// node i of lane l at [i * kProbeLanes + l].  Only the parity tests read
  /// them; the budget search uses the returned mask alone.
  double* scratch;
};

/// Operands of one lane-parallel steady-state probe: the closed-form
/// power-temperature fixed point of thermal::FixedPointSolver,
///   T = T_amb + (I - R diag(p0 k))^-1 R (scale[l] * shape_w + c),
/// at each lane's scale, through the solver's factors.  Arrays are n long,
/// matrices n x n and row-major.
struct SteadyProbe {
  std::size_t n;
  const double* r;         ///< R = G^-1
  const double* lu;        ///< LU factors of I - R diag(p0 k), unit lower L
  const std::size_t* piv;  ///< row i of the factored system is row piv[i]
  const double* leak_c;    ///< constant leakage p0 (1 + k (T_amb - t0))
  double ambient_c;
  const double* limit_c;   ///< a lane violates once a node reaches its limit
  const double* shape_w;
  /// 2 * n * kProbeLanes doubles, any alignment.  On return the first
  /// n * kProbeLanes hold the fixed-point temperatures, node i of lane l at
  /// [i * kProbeLanes + l].  Only the parity tests read them.
  double* scratch;
};

/// One ISA variant of the kernels.  Every kernel overwrites its output.
struct KernelTable {
  const char* name;
  /// C = A * B with A m x k and B k x n.
  void (*gemm_nn)(const Gemm& g);
  /// C = A^T * B with A k x m and B k x n.
  void (*gemm_tn)(const Gemm& g);
  /// s[c] = sum over rows r of a(r, c), for a rows x cols block.
  void (*col_sums)(std::size_t rows, std::size_t cols, const double* a, std::size_t lda,
                   double* s);
  /// Adam update of n parameters w with moments m, v and gradient g.  With
  /// weight_decay the gradient is g + l2 * w (weights); without it, g alone
  /// (biases).
  void (*adam)(std::size_t n, const AdamStep& p, bool weight_decay, double* w, double* m,
               double* v, const double* g);
  /// Simulates the kProbeLanes scales at once and returns a mask whose bit
  /// l is set iff lane l exceeds a limit after some tick within the
  /// horizon.  The call ends after the tick on which the last lane
  /// violates, or at the horizon; every lane steps every tick until then.
  unsigned (*rc_probe)(const RcProbe& p, const double* scale);
  /// Solves the kProbeLanes fixed points at once and returns a mask whose
  /// bit l is set iff lane l's worst margin max_i (T_i - limit_i) is not
  /// below zero (a NaN margin never counts).
  unsigned (*steady_probe)(const SteadyProbe& p, const double* scale);
  /// y[i] = tanh(x[i]) for i < n; y may be x.  Error at most 3 ULP against
  /// a long double reference (2.45 ULP is the largest seen in 2 * 10^7
  /// samples on [-0.6, 0.6], where it peaks); |x| >= 22 gives exactly +-1,
  /// the sign of zero is kept and NaN propagates.
  void (*tanh_row)(std::size_t n, const double* x, double* y);
  /// y[i] = exp(x[i]); y may be x.  Error at most 1 ULP (0.93 largest seen
  /// in 2 * 10^7 samples), subnormal results included; +0 below
  /// ln(2^-1075) ~ -745.133, +inf above ln(DBL_MAX) ~ 709.78, NaN
  /// propagates.
  void (*exp_row)(std::size_t n, const double* x, double* y);
  /// y[i] = log(x[i]); y may be x.  Error at most 1 ULP (0.85 largest seen
  /// in 2 * 10^7 samples), subnormal inputs included; log(+-0) = -inf,
  /// log(+inf) = +inf, log(x < 0) and log(NaN) are NaN.
  void (*log_row)(std::size_t n, const double* x, double* y);
};

/// The variant every caller uses: the widest one the host supports.
const KernelTable& active();

/// One element of tanh_row / exp_row / log_row: the same lane body, so the
/// result is bit-identical to the row kernels of every variant.  For
/// by-element reference code (tests/test_train_reference.cpp).
double tanh_scalar(double x);
double exp_scalar(double x);
double log_scalar(double x);

namespace detail {
/// Every variant this host can run, baseline first and active() last.
/// Exposed only so tests can hold the variants to bit equality; production
/// code always goes through active().
const std::vector<KernelTable>& supported_variants();
}  // namespace detail

}  // namespace oal::common::kernels
