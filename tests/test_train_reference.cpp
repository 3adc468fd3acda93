// Bitwise equivalence of the production trainers with a by-value reference.
//
// The reference below is the original batch-first backprop, kept verbatim in
// spirit: every minibatch is split into fixed 8-row shards, each shard is
// sliced out by value and pushed through freshly allocated GEMM results
// (X * W^T forward, dY^T * X weight gradients, column-sum bias gradients,
// dY * W input gradients, one GEMM per softmax head), the shard gradients are
// summed in ascending shard order and scaled by 1/B, and the per-layer
// optimizer steps with the scalar element loops.  It lives only here, as the
// oracle the workspace trainers (ml/mlp.cpp) must reproduce bit for bit:
// exported parameters and per-step losses are compared with memcmp, so even
// a flipped zero sign fails.  Its tanh, exp and log are the kernels' scalar
// entries (common::kernels::tanh_scalar etc.), which run the row kernels'
// lane bodies one element at a time, so neither side calls libm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/kernels.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "ml/mlp.h"

namespace oal::ml {
namespace {

using common::Mat;
using common::Rng;
using common::Vec;

// ---- Reference kernels (ascending-index accumulation from 0.0) -------------

Mat ref_matmul(const Mat& a, const Mat& b) {  // A * B
  Mat r(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j) r(i, j) += a(i, k) * b(k, j);
  return r;
}

Mat ref_matmul_tn(const Mat& a, const Mat& b) {  // A^T * B
  Mat r(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k)
    for (std::size_t i = 0; i < a.cols(); ++i)
      for (std::size_t j = 0; j < b.cols(); ++j) r(i, j) += a(k, i) * b(k, j);
  return r;
}

Mat ref_matmul_nt(const Mat& a, const Mat& b) {  // A * B^T
  Mat r(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      r(i, j) = s;
    }
  return r;
}

Vec ref_col_sums(const Mat& m) {
  Vec s(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) s[c] += m(r, c);
  return s;
}

Mat ref_slice_rows(const Mat& m, std::size_t r0, std::size_t r1) {
  Mat s(r1 - r0, m.cols());
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) s(r - r0, c) = m(r, c);
  return s;
}

void ref_activate(Activation act, Mat& z) {
  for (std::size_t r = 0; r < z.rows(); ++r)
    for (std::size_t c = 0; c < z.cols(); ++c)
      z(r, c) = act == Activation::kTanh ? common::kernels::tanh_scalar(z(r, c))
                                         : (z(r, c) < 0.0 ? 0.0 : z(r, c));
}

void ref_scale_by_activation_grad(Activation act, const Mat& post, Mat& g) {
  for (std::size_t r = 0; r < post.rows(); ++r)
    for (std::size_t c = 0; c < post.cols(); ++c) {
      const double t = post(r, c);
      g(r, c) *= act == Activation::kTanh ? 1.0 - t * t : (t > 0.0 ? 1.0 : 0.0);
    }
}

// ---- Reference optimizers (scalar element loops) ---------------------------

struct RefOptimizer {
  OptimizerConfig cfg;
  double lr = 0.0, l2 = 0.0;
  double beta1_t = 1.0, beta2_t = 1.0;  // beta^t, as running products
  Mat mw, vw;  // Adam moments / Sgd momentum (vw unused by Sgd)
  Vec mb, vb;

  void apply(Mat& w, Vec& b, const Mat& gw, const Vec& gb) {
    if (mw.empty()) {
      mw = Mat(w.rows(), w.cols());
      vw = Mat(w.rows(), w.cols());
      mb.assign(b.size(), 0.0);
      vb.assign(b.size(), 0.0);
    }
    if (cfg.kind == OptimizerConfig::Kind::kSgd) {
      for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
          const double g = gw(r, c) + l2 * w(r, c);
          if (cfg.momentum != 0.0) {
            mw(r, c) = cfg.momentum * mw(r, c) - lr * g;
            w(r, c) += mw(r, c);
          } else {
            w(r, c) -= lr * g;
          }
        }
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (cfg.momentum != 0.0) {
          mb[i] = cfg.momentum * mb[i] - lr * gb[i];
          b[i] += mb[i];
        } else {
          b[i] -= lr * gb[i];
        }
      }
      return;
    }
    beta1_t *= cfg.beta1;
    beta2_t *= cfg.beta2;
    const double bc1 = 1.0 - beta1_t;
    const double bc2 = 1.0 - beta2_t;
    const double omb1 = 1.0 - cfg.beta1, omb2 = 1.0 - cfg.beta2;
    for (std::size_t r = 0; r < w.rows(); ++r)
      for (std::size_t c = 0; c < w.cols(); ++c) {
        const double g = gw(r, c) + l2 * w(r, c);
        const double m = cfg.beta1 * mw(r, c) + omb1 * g;
        const double v = cfg.beta2 * vw(r, c) + omb2 * g * g;
        mw(r, c) = m;
        vw(r, c) = v;
        w(r, c) -= lr * (m / bc1) / (std::sqrt(v / bc2) + cfg.epsilon);
      }
    for (std::size_t i = 0; i < b.size(); ++i) {
      const double g = gb[i];
      const double m = cfg.beta1 * mb[i] + omb1 * g;
      const double v = cfg.beta2 * vb[i] + omb2 * g * g;
      mb[i] = m;
      vb[i] = v;
      b[i] -= lr * (m / bc1) / (std::sqrt(v / bc2) + cfg.epsilon);
    }
  }
};

struct RefLayer {
  Mat w;  // out x in
  Vec b;
  RefOptimizer opt;

  Mat forward(const Mat& x) const {
    Mat y = ref_matmul_nt(x, w);
    for (std::size_t r = 0; r < y.rows(); ++r)
      for (std::size_t c = 0; c < y.cols(); ++c) y(r, c) += b[c];
    return y;
  }
};

/// Builds reference layers of the given (in, out) shapes and loads them from
/// a network's export_params() stream (w row-major, then b, per layer).
using Shapes = std::vector<std::pair<std::size_t, std::size_t>>;  // (in, out) per layer

std::vector<RefLayer> ref_layers(const Shapes& shapes, const std::vector<double>& params,
                                 const MlpConfig& cfg) {
  std::vector<RefLayer> layers;
  std::size_t pos = 0;
  for (const auto& [in, out] : shapes) {
    RefLayer l;
    l.w = Mat(out, in);
    for (std::size_t r = 0; r < out; ++r)
      for (std::size_t c = 0; c < in; ++c) l.w(r, c) = params.at(pos++);
    l.b.resize(out);
    for (double& v : l.b) v = params.at(pos++);
    l.opt.cfg = cfg.optimizer;
    l.opt.lr = cfg.learning_rate;
    l.opt.l2 = cfg.l2;
    layers.push_back(std::move(l));
  }
  EXPECT_EQ(pos, params.size());
  return layers;
}

std::vector<double> ref_export(const std::vector<RefLayer>& layers) {
  std::vector<double> out;
  for (const auto& l : layers) {
    out.insert(out.end(), l.w.data().begin(), l.w.data().end());
    out.insert(out.end(), l.b.begin(), l.b.end());
  }
  return out;
}

constexpr std::size_t kShardRows = 8;

struct ShardGrads {
  std::vector<Mat> gw;
  std::vector<Vec> gb;
  double loss = 0.0;
};

/// Sums shard gradients in ascending shard order, scales by 1/B, steps every
/// layer; returns the mean loss.
double reduce_and_apply(std::vector<ShardGrads>& shards, std::vector<RefLayer>& layers,
                        std::size_t bsz) {
  ShardGrads total = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) {
    for (std::size_t l = 0; l < layers.size(); ++l) {
      total.gw[l] += shards[s].gw[l];
      for (std::size_t i = 0; i < total.gb[l].size(); ++i) total.gb[l][i] += shards[s].gb[l][i];
    }
    total.loss += shards[s].loss;
  }
  const double inv_b = 1.0 / static_cast<double>(bsz);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    total.gw[l] *= inv_b;
    for (double& v : total.gb[l]) v *= inv_b;
    layers[l].opt.apply(layers[l].w, layers[l].b, total.gw[l], total.gb[l]);
  }
  return total.loss * inv_b;
}

/// Reference regression MLP: linear output, masked MSE.
struct RefMlp {
  Activation act;
  std::vector<RefLayer> layers;

  ShardGrads shard(const Mat& xs, const Mat& ts, const Mat* mask, std::size_t r0,
                   std::size_t r1) const {
    const Mat x = ref_slice_rows(xs, r0, r1);
    std::vector<Mat> acts;
    for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
      Mat z = layers[l].forward(l == 0 ? x : acts.back());
      ref_activate(act, z);
      acts.push_back(std::move(z));
    }
    const Mat y = layers.back().forward(layers.size() == 1 ? x : acts.back());
    Mat dy(r1 - r0, y.cols());
    ShardGrads sg;
    for (std::size_t i = 0; i < dy.rows(); ++i)
      for (std::size_t j = 0; j < dy.cols(); ++j) {
        const double m = mask != nullptr ? (*mask)(r0 + i, j) : 1.0;
        const double e = (y(i, j) - ts(r0 + i, j)) * m;
        dy(i, j) = e;
        sg.loss += 0.5 * e * e;
      }
    sg.gw.resize(layers.size());
    sg.gb.resize(layers.size());
    Mat cur = std::move(dy);
    for (std::size_t l = layers.size(); l-- > 0;) {
      const Mat& in = l == 0 ? x : acts[l - 1];
      sg.gw[l] = ref_matmul_tn(cur, in);
      sg.gb[l] = ref_col_sums(cur);
      if (l > 0) {
        cur = ref_matmul(cur, layers[l].w);
        ref_scale_by_activation_grad(act, acts[l - 1], cur);
      }
    }
    return sg;
  }

  double train_batch(const Mat& xs, const Mat& ts, const Mat* mask) {
    std::vector<ShardGrads> shards;
    for (std::size_t r0 = 0; r0 < xs.rows(); r0 += kShardRows)
      shards.push_back(shard(xs, ts, mask, r0, std::min(xs.rows(), r0 + kShardRows)));
    return reduce_and_apply(shards, layers, xs.rows());
  }
};

/// Reference shared-trunk multi-head softmax classifier: layers holds the
/// trunk, then one layer per head.
struct RefMultiHead {
  Activation act;
  std::size_t trunk_depth;
  std::vector<RefLayer> layers;

  ShardGrads shard(const Mat& xs, const std::vector<std::vector<std::size_t>>& labels,
                   std::size_t r0, std::size_t r1) const {
    const Mat x = ref_slice_rows(xs, r0, r1);
    std::vector<Mat> acts;
    for (std::size_t l = 0; l < trunk_depth; ++l) {
      Mat z = layers[l].forward(l == 0 ? x : acts.back());
      ref_activate(act, z);
      acts.push_back(std::move(z));
    }
    const Mat& feat = trunk_depth == 0 ? x : acts.back();
    ShardGrads sg;
    sg.gw.resize(layers.size());
    sg.gb.resize(layers.size());
    Mat dtrunk(r1 - r0, feat.cols());
    for (std::size_t h = trunk_depth; h < layers.size(); ++h) {
      Mat dz = layers[h].forward(feat);
      for (std::size_t i = 0; i < dz.rows(); ++i) {
        double mx = dz(i, 0);
        for (std::size_t j = 0; j < dz.cols(); ++j) mx = std::max(mx, dz(i, j));
        double sum = 0.0;
        for (std::size_t j = 0; j < dz.cols(); ++j) {
          dz(i, j) = common::kernels::exp_scalar(dz(i, j) - mx);
          sum += dz(i, j);
        }
        for (std::size_t j = 0; j < dz.cols(); ++j) dz(i, j) /= sum;
        const std::size_t label = labels[r0 + i][h - trunk_depth];
        sg.loss += -common::kernels::log_scalar(std::max(dz(i, label), 1e-12));
        dz(i, label) -= 1.0;
      }
      sg.gw[h] = ref_matmul_tn(dz, feat);
      sg.gb[h] = ref_col_sums(dz);
      dtrunk += ref_matmul(dz, layers[h].w);
    }
    Mat cur = std::move(dtrunk);
    for (std::size_t l = trunk_depth; l-- > 0;) {
      ref_scale_by_activation_grad(act, acts[l], cur);
      const Mat& in = l == 0 ? x : acts[l - 1];
      sg.gw[l] = ref_matmul_tn(cur, in);
      sg.gb[l] = ref_col_sums(cur);
      if (l > 0) cur = ref_matmul(cur, layers[l].w);
    }
    return sg;
  }

  double train_batch(const Mat& xs, const std::vector<std::vector<std::size_t>>& labels) {
    std::vector<ShardGrads> shards;
    for (std::size_t r0 = 0; r0 < xs.rows(); r0 += kShardRows)
      shards.push_back(shard(xs, labels, r0, std::min(xs.rows(), r0 + kShardRows)));
    return reduce_and_apply(shards, layers, xs.rows());
  }
};

// ---- Harness ---------------------------------------------------------------

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Mat random_mat(std::size_t rows, std::size_t cols, double lo, double hi, Rng& rng) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
  return m;
}

/// Adam, or Sgd with the given momentum (0 = plain gradient descent).
OptimizerConfig optimizer(bool adam, double sgd_momentum) {
  OptimizerConfig o;
  if (!adam) {
    o.kind = OptimizerConfig::Kind::kSgd;
    o.momentum = sgd_momentum;
  }
  return o;
}

const std::size_t kBatchSizes[] = {1, 7, 8, 9, 16, 17};
constexpr int kSteps = 6;

/// The IL policy network shape: 12 features -> 24 -> 24 -> heads {4,5,13,19};
/// the Sgd arm uses momentum.
void check_multihead(std::size_t bsz, bool adam) {
  const std::vector<std::size_t> heads{4, 5, 13, 19};
  MlpConfig cfg;
  cfg.hidden = {24, 24};
  cfg.learning_rate = 2.5e-2;
  cfg.l2 = 1e-5;
  cfg.seed = 42 + bsz;
  cfg.optimizer = optimizer(adam, 0.9);
  MultiHeadClassifier net(12, heads, cfg);

  std::vector<double> init;
  net.export_params(init);
  const Shapes shapes{{12, 24}, {24, 24}, {24, 4}, {24, 5}, {24, 13}, {24, 19}};
  RefMultiHead ref{Activation::kTanh, 2, ref_layers(shapes, init, cfg)};

  Rng rng(1000 + bsz);
  for (int step = 0; step < kSteps; ++step) {
    const Mat x = random_mat(bsz, 12, -2.0, 2.0, rng);
    std::vector<std::vector<std::size_t>> labels(bsz);
    for (auto& row : labels)
      for (std::size_t h : heads)
        row.push_back(static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(h) - 1)));
    const double got = net.train_batch(x, labels);
    const double want = ref.train_batch(x, labels);
    ASSERT_TRUE(bits_equal(got, want)) << "loss, step " << step << ": " << got << " vs " << want;
    std::vector<double> params;
    net.export_params(params);
    ASSERT_TRUE(bits_equal(params, ref_export(ref.layers))) << "params after step " << step;
  }
}

/// A masked regression Mlp (5 inputs, 3 outputs) with the given hidden
/// widths; the Sgd arm is plain gradient descent.
void check_masked_mlp(std::size_t bsz, bool adam, Activation act,
                      const std::vector<std::size_t>& hidden = {16, 8}) {
  MlpConfig cfg;
  cfg.hidden = hidden;
  cfg.activation = act;
  cfg.learning_rate = 3e-3;
  cfg.l2 = 1e-4;
  cfg.seed = 7 + bsz;
  cfg.optimizer = optimizer(adam, 0.0);
  Mlp net(5, 3, cfg);

  std::vector<double> init;
  net.export_params(init);
  Shapes shapes;
  std::size_t in = 5;
  for (std::size_t h : hidden) shapes.emplace_back(std::exchange(in, h), h);
  shapes.emplace_back(in, 3);
  RefMlp ref{act, ref_layers(shapes, init, cfg)};

  Rng rng(2000 + bsz);
  for (int step = 0; step < kSteps; ++step) {
    const Mat x = random_mat(bsz, 5, -1.5, 1.5, rng);
    const Mat t = random_mat(bsz, 3, -1.0, 1.0, rng);
    Mat mask(bsz, 3);
    for (std::size_t r = 0; r < bsz; ++r)
      for (std::size_t c = 0; c < 3; ++c) mask(r, c) = rng.uniform() < 0.5 ? 1.0 : 0.0;
    const double got = net.train_batch(x, t, &mask);
    const double want = ref.train_batch(x, t, &mask);
    ASSERT_TRUE(bits_equal(got, want)) << "loss, step " << step << ": " << got << " vs " << want;
    std::vector<double> params;
    net.export_params(params);
    ASSERT_TRUE(bits_equal(params, ref_export(ref.layers))) << "params after step " << step;
  }
}

TEST(TrainReference, MultiHeadIlShapeMatchesReferenceBitwise) {
  for (std::size_t bsz : kBatchSizes)
    for (bool adam : {true, false}) {
      SCOPED_TRACE(testing::Message() << "batch " << bsz << (adam ? " adam" : " sgd"));
      check_multihead(bsz, adam);
    }
}

TEST(TrainReference, MaskedMlpMatchesReferenceBitwise) {
  for (std::size_t bsz : kBatchSizes)
    for (bool adam : {true, false}) {
      SCOPED_TRACE(testing::Message() << "batch " << bsz << (adam ? " adam" : " sgd"));
      check_masked_mlp(bsz, adam, Activation::kTanh);
    }
}

TEST(TrainReference, ReluMlpMatchesReferenceBitwise) {
  for (std::size_t bsz : kBatchSizes) {
    SCOPED_TRACE(testing::Message() << "batch " << bsz);
    check_masked_mlp(bsz, true, Activation::kRelu);
  }
}

TEST(TrainReference, LinearMlpMatchesReferenceBitwise) {
  // No hidden layer: the output block reads the input directly and no input
  // gradient is propagated.
  for (std::size_t bsz : kBatchSizes)
    for (bool adam : {true, false}) {
      SCOPED_TRACE(testing::Message() << "batch " << bsz << (adam ? " adam" : " sgd"));
      check_masked_mlp(bsz, adam, Activation::kTanh, {});
    }
}

}  // namespace
}  // namespace oal::ml
