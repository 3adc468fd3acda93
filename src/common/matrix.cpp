#include "common/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <stdexcept>

namespace oal::common {

Mat::Mat(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Mat::Mat(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("ragged initializer for Mat");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Mat Mat::identity(std::size_t n) {
  Mat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Mat Mat::operator-(const Mat& o) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) throw std::invalid_argument("Mat size mismatch in -");
  Mat r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] -= o.data_[i];
  return r;
}

Mat& Mat::operator+=(const Mat& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_) throw std::invalid_argument("Mat size mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Mat& Mat::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Mat Mat::operator*(double s) const {
  Mat r = *this;
  r *= s;
  return r;
}

Vec Mat::operator*(const Vec& v) const {
  Vec r(rows_, 0.0);
  matvec_into(*this, v, r);
  return r;
}

void Mat::set_row(std::size_t r, const Vec& v) {
  if (v.size() != cols_) throw std::invalid_argument("set_row size mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

double Mat::trace() const {
  double s = 0.0;
  for (std::size_t i = 0; i < std::min(rows_, cols_); ++i) s += (*this)(i, i);
  return s;
}

double dot(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void matvec_into(const Mat& a, const Vec& v, Vec& out) {
  if (a.cols() != v.size() || out.size() != a.rows() || &v == &out)
    throw std::invalid_argument("Mat*Vec size mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * v[j];
    out[i] = s;
  }
}

LuFactors lu_factor(Mat a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("lu_factor: matrix not square");
  LuFactors res{std::move(a), {}};
  res.piv.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.piv[i] = i;
  Mat& m = res.lu;
  for (std::size_t k = 0; k < n; ++k) {
    // Pivot selection.
    std::size_t p = k;
    double best = std::abs(m(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(m(i, k)) > best) {
        best = std::abs(m(i, k));
        p = i;
      }
    }
    if (best < 1e-300) throw std::runtime_error("lu_factor: singular matrix");
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(m(p, c), m(k, c));
      std::swap(res.piv[p], res.piv[k]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      m(i, k) /= m(k, k);
      const double f = m(i, k);
      for (std::size_t c = k + 1; c < n; ++c) m(i, c) -= f * m(k, c);
    }
  }
  return res;
}

void lu_apply(const LuFactors& f, const Vec& b, Vec& x) {
  const std::size_t n = f.lu.rows();
  if (b.size() != n || x.size() != n || &b == &x)
    throw std::invalid_argument("lu_apply: size mismatch or aliased rhs");
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.piv[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= f.lu(i, j) * x[j];
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= f.lu(ii, j) * x[j];
    x[ii] /= f.lu(ii, ii);
  }
}

Mat inverse(const Mat& a) {
  const LuFactors f = lu_factor(a);
  const std::size_t n = a.rows();
  Mat inv(n, n);
  Vec e(n, 0.0), x(n);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    lu_apply(f, e, x);
    e[c] = 0.0;
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = x[r];
  }
  return inv;
}

Mat cholesky(const Mat& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("cholesky: matrix not square");
  Mat l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) throw std::runtime_error("cholesky: matrix not SPD");
        l(i, j) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

Vec cholesky_solve(const Mat& a, const Vec& b) {
  const Mat l = cholesky(a);
  const std::size_t n = l.rows();
  Vec y(b);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) y[i] -= l(i, j) * y[j];
    y[i] /= l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) y[ii] -= l(j, ii) * y[j];
    y[ii] /= l(ii, ii);
  }
  return y;
}

namespace {

// Reduces to upper Hessenberg form by Householder reflections (in place).
void hessenberg(Mat& a) {
  const std::size_t n = a.rows();
  if (n < 3) return;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    double alpha = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) alpha += a(i, k) * a(i, k);
    alpha = std::sqrt(alpha);
    if (alpha < 1e-300) continue;
    if (a(k + 1, k) > 0) alpha = -alpha;
    Vec v(n, 0.0);
    v[k + 1] = a(k + 1, k) - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = a(i, k);
    const double vnorm = std::sqrt(dot(v, v));
    if (vnorm < 1e-300) continue;
    for (double& x : v) x /= vnorm;
    // A <- (I - 2 v v^T) A (I - 2 v v^T)
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t r = k + 1; r < n; ++r) s += v[r] * a(r, c);
      for (std::size_t r = k + 1; r < n; ++r) a(r, c) -= 2.0 * v[r] * s;
    }
    for (std::size_t r = 0; r < n; ++r) {
      double s = 0.0;
      for (std::size_t c = k + 1; c < n; ++c) s += a(r, c) * v[c];
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= 2.0 * s * v[c];
    }
  }
}

}  // namespace

Eigenvalues eigenvalues(const Mat& a_in) {
  // Francis-style shifted QR on the Hessenberg form with deflation.  For the
  // small (<= ~32x32) matrices in this codebase this is fast and reliable.
  Mat a = a_in;
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("eigenvalues: matrix not square");
  Eigenvalues ev;
  if (n == 0) return ev;
  hessenberg(a);

  std::size_t hi = n;  // active block is [0, hi)
  int iter_guard = 0;
  const int max_iters = 200 * static_cast<int>(n) + 200;
  while (hi > 0 && iter_guard++ < max_iters) {
    // Look for a small subdiagonal to deflate.
    std::size_t lo = hi - 1;
    while (lo > 0) {
      const double s = std::abs(a(lo - 1, lo - 1)) + std::abs(a(lo, lo));
      if (std::abs(a(lo, lo - 1)) < 1e-13 * (s + 1e-30)) {
        a(lo, lo - 1) = 0.0;
        break;
      }
      --lo;
    }
    if (lo == hi - 1) {  // 1x1 block
      ev.real.push_back(a(lo, lo));
      ev.imag.push_back(0.0);
      hi -= 1;
      continue;
    }
    if (lo == hi - 2) {  // 2x2 block: solve quadratic
      const double p = a(lo, lo), q = a(lo, lo + 1), r = a(lo + 1, lo), s = a(lo + 1, lo + 1);
      const double tr = p + s, det = p * s - q * r;
      const double disc = tr * tr / 4.0 - det;
      if (disc >= 0.0) {
        const double sq = std::sqrt(disc);
        ev.real.push_back(tr / 2.0 + sq);
        ev.imag.push_back(0.0);
        ev.real.push_back(tr / 2.0 - sq);
        ev.imag.push_back(0.0);
      } else {
        const double sq = std::sqrt(-disc);
        ev.real.push_back(tr / 2.0);
        ev.imag.push_back(sq);
        ev.real.push_back(tr / 2.0);
        ev.imag.push_back(-sq);
      }
      hi -= 2;
      continue;
    }
    // Wilkinson shift from the trailing 2x2 of the active block.
    const double p = a(hi - 2, hi - 2), q = a(hi - 2, hi - 1), r = a(hi - 1, hi - 2),
                 s = a(hi - 1, hi - 1);
    const double tr = p + s, det = p * s - q * r;
    double shift = s;
    const double disc = tr * tr / 4.0 - det;
    if (disc >= 0) {
      const double sq = std::sqrt(disc);
      const double l1 = tr / 2.0 + sq, l2 = tr / 2.0 - sq;
      shift = (std::abs(l1 - s) < std::abs(l2 - s)) ? l1 : l2;
    }
    // Shifted QR step via Givens rotations on the Hessenberg block [lo, hi).
    for (std::size_t i = lo; i < hi; ++i) a(i, i) -= shift;
    std::vector<std::pair<double, double>> rot(hi - lo - 1);
    for (std::size_t k = lo; k + 1 < hi; ++k) {
      const double x = a(k, k), y = a(k + 1, k);
      const double rr = std::hypot(x, y);
      double c = 1.0, sn = 0.0;
      if (rr > 1e-300) {
        c = x / rr;
        sn = y / rr;
      }
      rot[k - lo] = {c, sn};
      for (std::size_t j = k; j < hi; ++j) {
        const double t1 = a(k, j), t2 = a(k + 1, j);
        a(k, j) = c * t1 + sn * t2;
        a(k + 1, j) = -sn * t1 + c * t2;
      }
    }
    for (std::size_t k = lo; k + 1 < hi; ++k) {
      const auto [c, sn] = rot[k - lo];
      const std::size_t top = lo;
      const std::size_t last = std::min(hi, k + 2);
      for (std::size_t i = top; i < last + (last < hi ? 1 : 0) && i < hi; ++i) {
        const double t1 = a(i, k), t2 = a(i, k + 1);
        a(i, k) = c * t1 + sn * t2;
        a(i, k + 1) = -sn * t1 + c * t2;
      }
    }
    for (std::size_t i = lo; i < hi; ++i) a(i, i) += shift;
  }
  // If the guard tripped, report the remaining diagonal as-is (best effort).
  for (std::size_t i = 0; i < hi; ++i) {
    ev.real.push_back(a(i, i));
    ev.imag.push_back(0.0);
  }
  return ev;
}

double spectral_radius(const Mat& a) {
  const Eigenvalues ev = eigenvalues(a);
  double m = 0.0;
  for (std::size_t i = 0; i < ev.real.size(); ++i)
    m = std::max(m, std::hypot(ev.real[i], ev.imag[i]));
  return m;
}

}  // namespace oal::common
