// Dense vector/matrix algebra used throughout the library.
//
// The models in this project (RLS, ridge regression, Kalman filters, thermal
// state-space models) operate on small dense matrices (tens of rows), so a
// simple row-major implementation with LU / Cholesky factorization is both
// sufficient and easy to audit.  No external BLAS dependency is required.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace oal::common {

using Vec = std::vector<double>;

/// Row-major dense matrix of doubles.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0);
  Mat(std::initializer_list<std::initializer_list<double>> rows);

  static Mat identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }

  /// Raw row-major storage (rows*cols doubles).  The hot training kernels
  /// (GEMM, optimizer steps) iterate flat arrays so the compiler can
  /// vectorize; element order is unchanged, so results are bit-identical to
  /// the indexed loops.
  double* raw() { return data_.data(); }
  const double* raw() const { return data_.data(); }

  Mat operator-(const Mat& o) const;
  Mat operator*(double s) const;
  Mat& operator+=(const Mat& o);
  Mat& operator*=(double s);

  Vec operator*(const Vec& v) const;

  void set_row(std::size_t r, const Vec& v);

  double trace() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Vector helpers -------------------------------------------------------

double dot(const Vec& a, const Vec& b);
/// out = A v into a caller-sized buffer (out.size() == A.rows(), not aliasing
/// v); the same summation order as Mat::operator*(Vec), which wraps it.
void matvec_into(const Mat& a, const Vec& v, Vec& out);

// ---- Factorizations & solvers ---------------------------------------------

/// LU factors with partial pivoting: P A = L U packed in `lu` (unit-diagonal
/// L below the diagonal), row permutation `piv`.
struct LuFactors {
  Mat lu;
  std::vector<std::size_t> piv;
};

/// Factors a square A.  Throws std::runtime_error if A is (numerically)
/// singular.
LuFactors lu_factor(Mat a);

/// Solves A x = b from A's factors into a caller-sized x (x.size() == n, not
/// aliasing b).  Allocation-free, so a factorization reused across many
/// right-hand sides costs only the two triangular sweeps per solve.
void lu_apply(const LuFactors& f, const Vec& b, Vec& x);

/// Inverse via LU, column by column.  Prefer lu_factor + lu_apply when
/// only solves are needed.
Mat inverse(const Mat& a);

/// Cholesky factor L (lower) of a symmetric positive-definite matrix.
/// Throws std::runtime_error if the matrix is not SPD.
Mat cholesky(const Mat& a);

/// Solves A x = b for SPD A via Cholesky.
Vec cholesky_solve(const Mat& a, const Vec& b);

/// Eigenvalues of a general real matrix via the (shifted) QR algorithm on the
/// Hessenberg form.  Returns real parts and imaginary parts.  Intended for
/// the small matrices used in thermal stability analysis.
struct Eigenvalues {
  Vec real;
  Vec imag;
};
Eigenvalues eigenvalues(const Mat& a);

/// Spectral radius: max |lambda_i|.
double spectral_radius(const Mat& a);

}  // namespace oal::common
