#include "ml/optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/kernels.h"

namespace oal::ml {

namespace {

/// Reads the 0/1 "buffers allocated" flag at in[pos].
bool read_flag(const std::vector<double>& in, std::size_t& pos, bool& flag) {
  if (pos >= in.size() || (in[pos] != 0.0 && in[pos] != 1.0)) return false;
  flag = in[pos++] != 0.0;
  return true;
}

/// Copies the next `n` doubles of `in` into `dst`; false on underrun,
/// a non-finite value, or a negative one when `nonneg` (second moments).
bool read_buffer(const std::vector<double>& in, std::size_t& pos, double* dst, std::size_t n,
                 bool nonneg = false) {
  if (pos > in.size() || n > in.size() - pos) return false;
  const auto first = in.begin() + static_cast<std::ptrdiff_t>(pos);
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  if (!std::all_of(first, last,
                   [nonneg](double v) { return std::isfinite(v) && (!nonneg || v >= 0.0); }))
    return false;
  std::copy(first, last, dst);
  pos += n;
  return true;
}

}  // namespace

// ---- Sgd -------------------------------------------------------------------

Sgd::Sgd(double learning_rate, double l2, double momentum)
    : lr_(learning_rate), l2_(l2), momentum_(momentum) {}

void Sgd::apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) {
  if (momentum_ != 0.0 && vw_.empty()) {
    vw_ = common::Mat(w.rows(), w.cols());
    vb_.assign(b.size(), 0.0);
  }
  // Flat loops over the row-major storage: every element's update is
  // independent, so this is bit-identical to the nested (row, col) loops.
  const std::size_t n = w.rows() * w.cols();
  double* __restrict__ wp = w.raw();
  const double* __restrict__ gp = gw;
  if (momentum_ != 0.0) {
    double* __restrict__ vp = vw_.raw();
    for (std::size_t i = 0; i < n; ++i) {
      const double g = gp[i] + l2_ * wp[i];
      vp[i] = momentum_ * vp[i] - lr_ * g;
      wp[i] += vp[i];
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      vb_[i] = momentum_ * vb_[i] - lr_ * gb[i];
      b[i] += vb_[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) wp[i] -= lr_ * (gp[i] + l2_ * wp[i]);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] -= lr_ * gb[i];
  }
}

std::unique_ptr<Optimizer> Sgd::clone() const { return std::make_unique<Sgd>(*this); }

void Sgd::export_state(std::vector<double>& out) const {
  out.push_back(vw_.empty() ? 0.0 : 1.0);
  if (vw_.empty()) return;
  out.insert(out.end(), vw_.data().begin(), vw_.data().end());
  out.insert(out.end(), vb_.begin(), vb_.end());
}

bool Sgd::import_state(const std::vector<double>& in, std::size_t& pos, const common::Mat& w,
                       const common::Vec& b) {
  std::size_t p = pos;
  bool allocated = false;
  if (!read_flag(in, p, allocated)) return false;
  common::Mat vw;
  common::Vec vb;
  if (allocated) {
    if (momentum_ == 0.0) return false;  // plain SGD never allocates buffers
    vw = common::Mat(w.rows(), w.cols());
    vb.assign(b.size(), 0.0);
    if (!read_buffer(in, p, vw.raw(), w.rows() * w.cols()) ||
        !read_buffer(in, p, vb.data(), b.size()))
      return false;
  }
  vw_ = std::move(vw);
  vb_ = std::move(vb);
  pos = p;
  return true;
}

// ---- Adam ------------------------------------------------------------------

Adam::Adam(double learning_rate, double l2, double beta1, double beta2, double epsilon)
    : lr_(learning_rate), l2_(l2), beta1_(beta1), beta2_(beta2), eps_(epsilon) {}

void Adam::apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) {
  if (mw_.empty()) {
    mw_ = common::Mat(w.rows(), w.cols());
    vw_ = common::Mat(w.rows(), w.cols());
    mb_.assign(b.size(), 0.0);
    vb_.assign(b.size(), 0.0);
  }
  beta1_t_ *= beta1_;
  beta2_t_ *= beta2_;
  const double omb1 = 1.0 - beta1_, omb2 = 1.0 - beta2_;
  const double bc1 = 1.0 - beta1_t_;
  const double bc2 = 1.0 - beta2_t_;
  const common::kernels::AdamStep p{lr_, l2_, beta1_, beta2_, omb1, omb2, bc1, bc2, eps_};
  // Flat loops over the row-major storage: every element's update is
  // independent, so this is bit-identical to the nested (row, col) loops,
  // and the kernel variants vectorize the sqrt/div chain (element-wise IEEE
  // ops — vector and scalar lanes round identically).
  const auto& k = common::kernels::active();
  k.adam(w.rows() * w.cols(), p, true, w.raw(), mw_.raw(), vw_.raw(), gw);
  k.adam(b.size(), p, false, b.data(), mb_.data(), vb_.data(), gb);
}

std::unique_ptr<Optimizer> Adam::clone() const { return std::make_unique<Adam>(*this); }

void Adam::export_state(std::vector<double>& out) const {
  out.push_back(beta1_t_);
  out.push_back(beta2_t_);
  out.push_back(mw_.empty() ? 0.0 : 1.0);
  if (mw_.empty()) return;
  out.insert(out.end(), mw_.data().begin(), mw_.data().end());
  out.insert(out.end(), vw_.data().begin(), vw_.data().end());
  out.insert(out.end(), mb_.begin(), mb_.end());
  out.insert(out.end(), vb_.begin(), vb_.end());
}

bool Adam::import_state(const std::vector<double>& in, std::size_t& pos, const common::Mat& w,
                        const common::Vec& b) {
  std::size_t p = pos;
  if (p > in.size() || in.size() - p < 2) return false;
  const double beta1_t = in[p], beta2_t = in[p + 1];
  // Running products of betas, so in [0, 1]; the negated form rejects NaN.
  if (!(beta1_t >= 0.0 && beta1_t <= 1.0) || !(beta2_t >= 0.0 && beta2_t <= 1.0)) return false;
  p += 2;
  bool allocated = false;
  if (!read_flag(in, p, allocated)) return false;
  common::Mat mw, vw;
  common::Vec mb, vb;
  if (allocated) {
    const std::size_t n = w.rows() * w.cols();
    mw = common::Mat(w.rows(), w.cols());
    vw = common::Mat(w.rows(), w.cols());
    mb.assign(b.size(), 0.0);
    vb.assign(b.size(), 0.0);
    if (!read_buffer(in, p, mw.raw(), n) || !read_buffer(in, p, vw.raw(), n, true) ||
        !read_buffer(in, p, mb.data(), b.size()) ||
        !read_buffer(in, p, vb.data(), b.size(), true))
      return false;
  }
  beta1_t_ = beta1_t;
  beta2_t_ = beta2_t;
  mw_ = std::move(mw);
  vw_ = std::move(vw);
  mb_ = std::move(mb);
  vb_ = std::move(vb);
  pos = p;
  return true;
}

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg, double learning_rate,
                                          double l2) {
  switch (cfg.kind) {
    case OptimizerConfig::Kind::kSgd:
      return std::make_unique<Sgd>(learning_rate, l2, cfg.momentum);
    case OptimizerConfig::Kind::kAdam:
      return std::make_unique<Adam>(learning_rate, l2, cfg.beta1, cfg.beta2, cfg.epsilon);
  }
  throw std::invalid_argument("make_optimizer: unknown optimizer kind");
}

}  // namespace oal::ml
