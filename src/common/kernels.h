// Raw-pointer training kernels with runtime ISA dispatch.
//
// The minibatch trainers (ml/mlp.cpp) and the Adam optimizer spend their
// time in four small loops: two GEMM shapes, a column-sum reduction and
// Adam's per-parameter update.  Each is compiled in two ISA variants
// (baseline x86-64 and AVX2) and the widest one the host supports is chosen
// once, on first use.  There is no build option or environment variable: the
// choice cannot change results, because every variant performs the same
// IEEE-754 operations in the same order and only packs independent output
// elements into wider vector lanes.  Two rules keep that true:
//   * no reduction is reassociated — each output element accumulates its
//     terms in ascending index order starting from 0.0, exactly like the
//     scalar loop, whatever the vector width;
//   * no multiply-add is contracted into an FMA.  The translation unit that
//     holds the variants is compiled with -ffp-contract=off (see
//     CMakeLists.txt), because a contracted a*b+c rounds once instead of
//     twice.
// tests/test_kernels.cpp runs every supported variant on ragged shapes and
// asserts bit equality with the baseline.
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
};

/// The variant every caller uses: the widest one the host supports.
const KernelTable& active();

namespace detail {
/// Every variant this host can run, baseline first and active() last.
/// Exposed only so tests can hold the variants to bit equality; production
/// code always goes through active().
const std::vector<KernelTable>& supported_variants();
}  // namespace detail

}  // namespace oal::common::kernels
