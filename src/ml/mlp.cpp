#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/kernels.h"

namespace oal::ml {

namespace {

/// The same activation functions the trainer applies (tanh through the
/// kernel table's tanh_row), so the deployed network evaluates exactly the
/// function it was trained as.
void activate_inplace(Activation act, common::Vec& a) {
  if (act == Activation::kTanh) {
    common::kernels::active().tanh_row(a.size(), a.data(), a.data());
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = a[i] > 0.0 ? a[i] : 0.0;
  }
}

/// Fisher-Yates shuffle with the caller's deterministic RNG (the only source
/// of randomness in a training pass — no hidden engine-global state).
void shuffle_order(std::vector<std::size_t>& order, common::Rng& rng) {
  for (std::size_t i = order.size(); i-- > 1;)
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)))]);
}

// ---- Shared training step ---------------------------------------------------
//
// Both networks train through the functions below.  The trainer sees a
// network as `nhidden` activated layers followed by an output block of
// `nparts` layers that all read the last hidden activation and whose outputs
// sit side by side in one B x out_dim buffer: one part for the Mlp's linear
// output, one per softmax head for the classifier (the heads are fused into
// one GEMM for the forward pass and one for the weight gradients).
//
// Bitwise contract with the original per-shard by-value implementation
// (tests/test_train_reference.cpp): every row's forward values and input
// gradients are computed exactly as before, since rows are independent; each
// GEMM output element accumulates from 0.0 in ascending k; the output block's
// input gradient is the sum of per-part partial products added in part
// order; and the weight/bias gradients are still reduced per 8-row shard,
// summed in ascending shard order and then scaled by 1/B.

// Minibatch rows per gradient shard.  The shard geometry is a property of the
// batch: shard s always covers rows [s*kGradShardRows, ...), and shard
// results are reduced in ascending shard order.
constexpr std::size_t kGradShardRows = 8;

struct NetView {
  NetView(DenseLayer* hidden_layers, std::size_t num_hidden, DenseLayer* output_parts,
          std::size_t num_parts, Activation activation)
      : hidden(hidden_layers),
        nhidden(num_hidden),
        parts(output_parts),
        nparts(num_parts),
        act(activation),
        in_dim(num_hidden > 0 ? hidden_layers[0].in_dim() : output_parts[0].in_dim()) {
    for (std::size_t l = 0; l < nhidden; ++l) num_params += hidden[l].num_params();
    for (std::size_t p = 0; p < nparts; ++p) {
      out_dim += parts[p].out_dim();
      num_params += parts[p].num_params();
    }
  }

  DenseLayer* hidden;
  std::size_t nhidden;
  DenseLayer* parts;
  std::size_t nparts;
  Activation act;
  std::size_t in_dim;       ///< network input width
  std::size_t out_dim = 0;  ///< summed output width of the parts
  std::size_t num_params = 0;
};

std::size_t feature_dim(const NetView& net) {
  return net.nhidden == 0 ? net.in_dim : net.hidden[net.nhidden - 1].out_dim();
}

/// Summed output width of the hidden layers (their column count in ws.acts).
std::size_t hidden_cols(const NetView& net) {
  std::size_t cols = 0;
  for (std::size_t l = 0; l < net.nhidden; ++l) cols += net.hidden[l].out_dim();
  return cols;
}

std::size_t num_shards(std::size_t bsz) { return (bsz + kGradShardRows - 1) / kGradShardRows; }

void grow(std::vector<double>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Grows the workspace to a bsz-row batch.  Sizes depend only on the network
/// shape and bsz, so repeated batches of the same size never reallocate.
void reserve_workspace(const NetView& net, std::size_t bsz, TrainWorkspace& ws) {
  std::size_t wt = 0, in = net.in_dim;
  for (std::size_t l = 0; l < net.nhidden; ++l) {
    wt += in * net.hidden[l].out_dim();
    in = net.hidden[l].out_dim();
  }
  const std::size_t cols = hidden_cols(net);
  grow(ws.wt, wt + in * net.out_dim);
  grow(ws.acts, bsz * (cols + net.out_dim));
  grow(ws.deltas, bsz * cols);
  grow(ws.partial, net.nparts > 1 && net.nhidden > 0 ? bsz * in : 0);
  grow(ws.grads, num_shards(bsz) * net.num_params);
}

// oal-lint: hot-path
/// wt(c, r) = w(r, c), written at row stride ld (wt may be a column slice of
/// a wider block).
void transpose_into(const common::Mat& w, double* wt, std::size_t ld) {
  for (std::size_t r = 0; r < w.rows(); ++r)
    for (std::size_t c = 0; c < w.cols(); ++c) wt[c * ld + r] = w(r, c);
}

/// Forward pass over the whole batch.  Hidden layer l's activations land in
/// ws.acts (B x out_l, one layer after another); the output block's raw
/// outputs follow them, and that buffer is returned for the loss to turn
/// into dL/dY in place.
double* forward_batch_into(const NetView& net, const common::Mat& x, TrainWorkspace& ws,
                           const common::kernels::KernelTable& k) {
  const std::size_t bsz = x.rows();
  const double* in = x.raw();
  std::size_t in_dim = net.in_dim;
  double* wt = ws.wt.data();
  double* a = ws.acts.data();
  for (std::size_t l = 0; l < net.nhidden; ++l) {
    const DenseLayer& layer = net.hidden[l];
    const std::size_t out = layer.out_dim();
    transpose_into(layer.weights(), wt, out);
    k.gemm_nn({bsz, out, in_dim, in, in_dim, wt, out, a, out});
    const double* b = layer.bias().data();
    if (net.act == Activation::kTanh) {
      for (std::size_t r = 0; r < bsz; ++r)
        for (std::size_t c = 0; c < out; ++c) a[r * out + c] += b[c];
      k.tanh_row(bsz * out, a, a);
    } else {
      for (std::size_t r = 0; r < bsz; ++r)
        for (std::size_t c = 0; c < out; ++c) {
          const double z = a[r * out + c] + b[c];
          a[r * out + c] = z < 0.0 ? 0.0 : z;
        }
    }
    wt += in_dim * out;
    in = a;
    in_dim = out;
    a += bsz * out;
  }
  // The output parts' transposed weights sit side by side in one
  // in_dim x out_dim block, so one GEMM serves every part.
  for (std::size_t p = 0, col = 0; p < net.nparts; col += net.parts[p++].out_dim())
    transpose_into(net.parts[p].weights(), wt + col, net.out_dim);
  k.gemm_nn({bsz, net.out_dim, in_dim, in, in_dim, wt, net.out_dim, a, net.out_dim});
  for (std::size_t p = 0, col = 0; p < net.nparts; col += net.parts[p++].out_dim()) {
    const common::Vec& b = net.parts[p].bias();
    for (std::size_t r = 0; r < bsz; ++r) {
      double* row = a + r * net.out_dim + col;
      for (std::size_t c = 0; c < b.size(); ++c) row[c] += b[c];
    }
  }
  return a;
}

/// Backward pass from dL/dY (in place in the output buffer `dy`), then the
/// per-shard gradient reductions, the ascending-shard sum scaled by inv_b,
/// and one optimizer step per layer.
void backward_and_apply(const NetView& net, const common::Mat& x, const double* dy,
                        TrainWorkspace& ws, const common::kernels::KernelTable& k) {
  const std::size_t bsz = x.rows();
  const std::size_t feat = feature_dim(net);

  // Input gradients over the whole batch.  Hidden layer l's delta sits at
  // the same offset in ws.deltas as its activations in ws.acts.
  if (net.nhidden > 0) {
    const std::size_t last_off = bsz * (hidden_cols(net) - feat);
    double* d = ws.deltas.data() + last_off;
    // Part 0's product is written directly, later parts are added in part
    // order: the same values as summing every part from 0.0, because a sum
    // that starts from +0.0 is never -0.0.
    for (std::size_t p = 0, col = 0; p < net.nparts; col += net.parts[p++].out_dim()) {
      const common::Mat& w = net.parts[p].weights();
      double* dst = p == 0 ? d : ws.partial.data();
      k.gemm_nn({bsz, feat, w.rows(), dy + col, net.out_dim, w.raw(), feat, dst, feat});
      if (p > 0)
        for (std::size_t i = 0; i < bsz * feat; ++i) d[i] += dst[i];
    }
    std::size_t off = last_off;
    for (std::size_t l = net.nhidden; l-- > 0;) {
      const std::size_t out = net.hidden[l].out_dim();
      const double* a = ws.acts.data() + off;
      double* dl = ws.deltas.data() + off;
      // dL/dz = dL/da * act'(z), with act' recomputed from the post-activation
      // a: tanh'(z) = 1 - a^2 (bitwise 1 - tanh(z)^2), relu'(z) = [a > 0].
      if (net.act == Activation::kTanh) {
        for (std::size_t i = 0; i < bsz * out; ++i) dl[i] *= 1.0 - a[i] * a[i];
      } else {
        for (std::size_t i = 0; i < bsz * out; ++i) dl[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      }
      if (l == 0) break;
      const common::Mat& w = net.hidden[l].weights();
      const std::size_t in = w.cols();
      off -= bsz * in;
      k.gemm_nn({bsz, in, out, dl, out, w.raw(), in, ws.deltas.data() + off, in});
    }
  }

  // Weight and bias gradients, one fixed 8-row shard at a time.  Shard s
  // writes only its own num_params slice of ws.grads, laid out as
  // [gw, gb] per hidden layer, then [gw, gb] of the fused output block.
  const std::size_t nshards = num_shards(bsz);
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::size_t r0 = s * kGradShardRows;
    const std::size_t n = std::min(bsz, r0 + kGradShardRows) - r0;
    double* g = ws.grads.data() + s * net.num_params;
    const double* in = x.raw() + r0 * net.in_dim;
    std::size_t in_dim = net.in_dim, off = 0;
    for (std::size_t l = 0; l < net.nhidden; ++l) {
      const std::size_t out = net.hidden[l].out_dim();
      const double* d = ws.deltas.data() + off + r0 * out;
      k.gemm_tn({out, in_dim, n, d, out, in, in_dim, g, in_dim});
      g += out * in_dim;
      k.col_sums(n, out, d, out, g);
      g += out;
      in = ws.acts.data() + off + r0 * out;
      in_dim = out;
      off += bsz * out;
    }
    const double* d = dy + r0 * net.out_dim;
    k.gemm_tn({net.out_dim, in_dim, n, d, net.out_dim, in, in_dim, g, in_dim});
    k.col_sums(n, net.out_dim, d, net.out_dim, g + net.out_dim * in_dim);
  }

  // Fixed-order reduction into shard 0's slice: ascending shard index, then
  // the 1/B scale.
  double* total = ws.grads.data();
  for (std::size_t s = 1; s < nshards; ++s) {
    const double* gs = ws.grads.data() + s * net.num_params;
    for (std::size_t i = 0; i < net.num_params; ++i) total[i] += gs[i];
  }
  const double inv_b = 1.0 / static_cast<double>(bsz);
  for (std::size_t i = 0; i < net.num_params; ++i) total[i] *= inv_b;

  const double* g = total;
  for (std::size_t l = 0; l < net.nhidden; ++l) {
    DenseLayer& layer = net.hidden[l];
    const std::size_t nw = layer.out_dim() * layer.in_dim();
    layer.apply(g, g + nw);
    g += nw + layer.out_dim();
  }
  const double* gb = g + net.out_dim * feat;
  for (std::size_t p = 0, col = 0; p < net.nparts; col += net.parts[p++].out_dim())
    net.parts[p].apply(g + col * feat, gb + col);
}
// oal-lint: hot-path-end

}  // namespace

// ---- DenseLayer ------------------------------------------------------------

DenseLayer::DenseLayer(std::size_t in, std::size_t out, common::Rng& rng,
                       std::unique_ptr<Optimizer> opt)
    : w_(out, in), b_(out, 0.0), opt_(std::move(opt)) {
  // Xavier/Glorot initialization.
  const double scale = std::sqrt(2.0 / static_cast<double>(in + out));
  for (std::size_t r = 0; r < out; ++r)
    for (std::size_t c = 0; c < in; ++c) w_(r, c) = rng.normal(0.0, scale);
}

DenseLayer::DenseLayer(const DenseLayer& o)
    : w_(o.w_), b_(o.b_), opt_(o.opt_ ? o.opt_->clone() : nullptr) {}

DenseLayer& DenseLayer::operator=(const DenseLayer& o) {
  if (this != &o) {
    w_ = o.w_;
    b_ = o.b_;
    opt_ = o.opt_ ? o.opt_->clone() : nullptr;
  }
  return *this;
}

// oal-lint: hot-path
void DenseLayer::forward_into(const common::Vec& x, common::Vec& y) const {
  if (w_.cols() != x.size()) throw std::invalid_argument("Mat*Vec size mismatch");
  // Each output accumulates from 0.0 in ascending input index, then adds the
  // bias: the order the batch forward (gemm_nn, then bias) uses per row.
  y.resize(w_.rows());  // oal-lint: allow(hot-path-alloc)  reaches capacity once, then no-op
  for (std::size_t i = 0; i < w_.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < w_.cols(); ++j) s += w_(i, j) * x[j];
    y[i] = s + b_[i];
  }
}
// oal-lint: hot-path-end

void DenseLayer::apply(const double* gw, const double* gb) { opt_->apply(w_, b_, gw, gb); }

void DenseLayer::append_params(std::vector<double>& out) const {
  out.insert(out.end(), w_.data().begin(), w_.data().end());
  out.insert(out.end(), b_.begin(), b_.end());
}

bool DenseLayer::read_params(const std::vector<double>& in, std::size_t& pos) {
  const std::size_t nw = w_.rows() * w_.cols();
  if (pos > in.size() || nw + b_.size() > in.size() - pos) return false;
  const auto first = in.begin() + static_cast<std::ptrdiff_t>(pos);
  if (!std::all_of(first, first + static_cast<std::ptrdiff_t>(nw + b_.size()),
                   [](double v) { return std::isfinite(v); }))
    return false;
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
            in.begin() + static_cast<std::ptrdiff_t>(pos + nw), w_.raw());
  pos += nw;
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
            in.begin() + static_cast<std::ptrdiff_t>(pos + b_.size()), b_.begin());
  pos += b_.size();
  return true;
}

// ---- Mlp -------------------------------------------------------------------

Mlp::Mlp(std::size_t input_dim, std::size_t output_dim, MlpConfig cfg)
    : input_dim_(input_dim), output_dim_(output_dim), cfg_(std::move(cfg)) {
  if (input_dim == 0 || output_dim == 0) throw std::invalid_argument("Mlp: zero dimension");
  common::Rng rng(cfg_.seed);
  std::size_t prev = input_dim;
  for (std::size_t h : cfg_.hidden) {
    layers_.emplace_back(prev, h, rng,
                         make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
    prev = h;
  }
  layers_.emplace_back(prev, output_dim, rng,
                       make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
}

common::Vec Mlp::forward(const common::Vec& x) const {
  InferScratch s;
  common::Vec out;
  forward_into(x, out, s);
  return out;
}

// oal-lint: hot-path
void Mlp::forward_into(const common::Vec& x, common::Vec& out, InferScratch& s) const {
  if (x.size() != input_dim_) throw std::invalid_argument("Mlp::forward: dim mismatch");
  const common::Vec* cur = &x;
  bool use_a = true;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    common::Vec& dst = use_a ? s.a : s.b;
    layers_[l].forward_into(*cur, dst);
    activate_inplace(cfg_.activation, dst);
    cur = &dst;
    use_a = !use_a;
  }
  layers_.back().forward_into(*cur, out);
}
// oal-lint: hot-path-end

common::Mat Mlp::forward_batch(const common::Mat& x) {
  if (x.cols() != input_dim_) throw std::invalid_argument("Mlp::forward_batch: dim mismatch");
  const NetView net(layers_.data(), layers_.size() - 1, &layers_.back(), 1, cfg_.activation);
  reserve_workspace(net, x.rows(), ws_);
  const double* y = forward_batch_into(net, x, ws_, common::kernels::active());
  common::Mat out(x.rows(), output_dim_);
  std::copy(y, y + x.rows() * output_dim_, out.raw());
  return out;
}

// oal-lint: hot-path
double Mlp::train_batch(const common::Mat& x, const common::Mat& targets,
                        const common::Mat* mask) {
  if (x.rows() == 0 || x.rows() != targets.rows())
    throw std::invalid_argument("Mlp::train_batch: bad batch");
  if (x.cols() != input_dim_) throw std::invalid_argument("Mlp::train_batch: input dim");
  if (targets.cols() != output_dim_) throw std::invalid_argument("Mlp::train_batch: target dim");
  if (mask != nullptr && (mask->rows() != x.rows() || mask->cols() != output_dim_))
    throw std::invalid_argument("Mlp::train_batch: mask shape");

  const NetView net(layers_.data(), layers_.size() - 1, &layers_.back(), 1, cfg_.activation);
  const std::size_t bsz = x.rows();
  reserve_workspace(net, bsz, ws_);
  const auto& k = common::kernels::active();
  double* y = forward_batch_into(net, x, ws_, k);

  // Masked squared error, turned into dL/dY in place; the loss sums each
  // shard's rows, then the shards in ascending order.
  double loss = 0.0;
  for (std::size_t r0 = 0; r0 < bsz; r0 += kGradShardRows) {
    double shard_loss = 0.0;
    for (std::size_t i = r0; i < std::min(bsz, r0 + kGradShardRows); ++i) {
      for (std::size_t j = 0; j < output_dim_; ++j) {
        const double m = mask != nullptr ? (*mask)(i, j) : 1.0;
        const double e = (y[i * output_dim_ + j] - targets(i, j)) * m;
        y[i * output_dim_ + j] = e;
        shard_loss += 0.5 * e * e;
      }
    }
    loss += shard_loss;
  }

  backward_and_apply(net, x, y, ws_, k);
  return loss * (1.0 / static_cast<double>(bsz));
}
// oal-lint: hot-path-end

void Mlp::copy_params_from(const Mlp& other) {
  if (other.layers_.size() != layers_.size()) throw std::invalid_argument("Mlp::copy_params_from: shape");
  layers_ = other.layers_;
}

void Mlp::export_params(std::vector<double>& out) const {
  for (const auto& l : layers_) l.append_params(out);
}

// ---- MultiHeadClassifier ----------------------------------------------------

MultiHeadClassifier::MultiHeadClassifier(std::size_t input_dim, std::vector<std::size_t> head_sizes,
                                         MlpConfig cfg)
    : input_dim_(input_dim), cfg_(std::move(cfg)), head_sizes_(std::move(head_sizes)) {
  if (head_sizes_.empty()) throw std::invalid_argument("MultiHeadClassifier: no heads");
  common::Rng rng(cfg_.seed);
  std::size_t prev = input_dim;
  for (std::size_t h : cfg_.hidden) {
    trunk_.emplace_back(prev, h, rng,
                        make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
    prev = h;
  }
  for (std::size_t hs : head_sizes_) {
    if (hs < 2) throw std::invalid_argument("MultiHeadClassifier: head needs >= 2 classes");
    heads_.emplace_back(prev, hs, rng,
                        make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
  }
}

std::vector<std::size_t> MultiHeadClassifier::predict(const common::Vec& x) const {
  InferScratch s;
  std::vector<std::size_t> cls;
  predict_into(x, cls, s);
  return cls;
}

// oal-lint: hot-path
void MultiHeadClassifier::predict_into(const common::Vec& x, std::vector<std::size_t>& cls,
                                       InferScratch& s) const {
  if (x.size() != input_dim_) throw std::invalid_argument("MultiHeadClassifier: dim mismatch");
  const common::Vec* cur = &x;
  bool use_a = true;
  for (const auto& layer : trunk_) {
    common::Vec& dst = use_a ? s.a : s.b;
    layer.forward_into(*cur, dst);
    activate_inplace(cfg_.activation, dst);
    cur = &dst;
    use_a = !use_a;
  }
  cls.resize(heads_.size());  // oal-lint: allow(hot-path-alloc)  reaches capacity once, then no-op
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    heads_[h].forward_into(*cur, s.logits);
    cls[h] = static_cast<std::size_t>(
        std::distance(s.logits.begin(), std::max_element(s.logits.begin(), s.logits.end())));
  }
}
// oal-lint: hot-path-end

// oal-lint: hot-path
double MultiHeadClassifier::train_batch(const common::Mat& x,
                                        const std::vector<std::vector<std::size_t>>& labels) {
  if (x.rows() == 0 || x.rows() != labels.size())
    throw std::invalid_argument("MultiHeadClassifier::train_batch: bad batch");
  if (x.cols() != input_dim_)
    throw std::invalid_argument("MultiHeadClassifier::train_batch: input dim");
  for (const auto& row : labels) {
    if (row.size() != heads_.size())
      throw std::invalid_argument("MultiHeadClassifier::train_batch: label count mismatch");
    for (std::size_t h = 0; h < heads_.size(); ++h)
      if (row[h] >= head_sizes_[h])
        throw std::invalid_argument("MultiHeadClassifier::train_batch: label out of range");
  }

  const NetView net(trunk_.data(), trunk_.size(), heads_.data(), heads_.size(), cfg_.activation);
  const std::size_t bsz = x.rows();
  reserve_workspace(net, bsz, ws_);
  grow(ws_.label_p, bsz * heads_.size());
  const auto& k = common::kernels::active();
  double* z = forward_batch_into(net, x, ws_, k);

  // Each head's logits become dL/dz in place: a max-shifted softmax of each
  // row, then subtract the one-hot label.  The exp runs once over the whole
  // shifted B x out_dim block and the log once over the B x heads
  // label probabilities; the loss keeps the shard, head, row summation
  // order.
  const std::size_t nheads = heads_.size();
  for (std::size_t i = 0; i < bsz; ++i)
    for (std::size_t h = 0, col = 0; h < nheads; col += head_sizes_[h++]) {
      double* dz = z + i * net.out_dim + col;
      double mx = dz[0];
      for (std::size_t j = 0; j < head_sizes_[h]; ++j) mx = std::max(mx, dz[j]);
      for (std::size_t j = 0; j < head_sizes_[h]; ++j) dz[j] -= mx;
    }
  k.exp_row(bsz * net.out_dim, z, z);
  double* label_p = ws_.label_p.data();
  for (std::size_t i = 0; i < bsz; ++i)
    for (std::size_t h = 0, col = 0; h < nheads; col += head_sizes_[h++]) {
      double* dz = z + i * net.out_dim + col;
      double sum = 0.0;
      for (std::size_t j = 0; j < head_sizes_[h]; ++j) sum += dz[j];
      for (std::size_t j = 0; j < head_sizes_[h]; ++j) dz[j] /= sum;
      const std::size_t label = labels[i][h];
      label_p[i * nheads + h] = std::max(dz[label], 1e-12);
      dz[label] -= 1.0;
    }
  k.log_row(bsz * nheads, label_p, label_p);
  double loss = 0.0;
  for (std::size_t r0 = 0; r0 < bsz; r0 += kGradShardRows) {
    double shard_loss = 0.0;
    for (std::size_t h = 0; h < nheads; ++h)
      for (std::size_t i = r0; i < std::min(bsz, r0 + kGradShardRows); ++i)
        shard_loss += -label_p[i * nheads + h];
    loss += shard_loss;
  }

  backward_and_apply(net, x, z, ws_, k);
  return loss * (1.0 / static_cast<double>(bsz));
}
// oal-lint: hot-path-end

double MultiHeadClassifier::train_epoch(const std::vector<common::Vec>& xs,
                                        const std::vector<std::vector<std::size_t>>& labels,
                                        std::size_t batch_size, common::Rng& rng) {
  if (xs.size() != labels.size() || xs.empty())
    throw std::invalid_argument("MultiHeadClassifier::train_epoch: bad data");
  const std::size_t n = xs.size();
  if (batch_size == 0) batch_size = n;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  shuffle_order(order, rng);
  double loss_sum = 0.0;
  common::Mat xb;  // gather buffers, reallocated only on batch-size change
  std::vector<std::vector<std::size_t>> lb;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(n, start + batch_size);
    const std::size_t bs = end - start;
    if (xb.rows() != bs) xb = common::Mat(bs, input_dim_);
    lb.resize(bs);
    for (std::size_t i = start; i < end; ++i) {
      xb.set_row(i - start, xs[order[i]]);
      lb[i - start] = labels[order[i]];
    }
    loss_sum += train_batch(xb, lb) * static_cast<double>(bs);
  }
  return loss_sum / static_cast<double>(n);
}

double MultiHeadClassifier::train(const std::vector<common::Vec>& xs,
                                  const std::vector<std::vector<std::size_t>>& labels,
                                  std::size_t epochs, std::size_t batch_size, common::Rng& rng) {
  if (xs.size() != labels.size() || xs.empty())
    throw std::invalid_argument("MultiHeadClassifier::train: bad data");
  double last = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) last = train_epoch(xs, labels, batch_size, rng);
  return last;
}

std::size_t MultiHeadClassifier::num_params() const {
  std::size_t n = 0;
  for (const auto& l : trunk_) n += l.num_params();
  for (const auto& h : heads_) n += h.num_params();
  return n;
}

void MultiHeadClassifier::export_params(std::vector<double>& out) const {
  for (const auto& l : trunk_) l.append_params(out);
  for (const auto& h : heads_) h.append_params(out);
}

bool MultiHeadClassifier::import_params(const std::vector<double>& in, std::size_t& pos) {
  for (auto& l : trunk_)
    if (!l.read_params(in, pos)) return false;
  for (auto& h : heads_)
    if (!h.read_params(in, pos)) return false;
  return true;
}

void MultiHeadClassifier::export_optimizer_state(std::vector<double>& out) const {
  for (const auto& l : trunk_) l.append_optimizer_state(out);
  for (const auto& h : heads_) h.append_optimizer_state(out);
}

bool MultiHeadClassifier::import_optimizer_state(const std::vector<double>& in, std::size_t& pos) {
  for (auto& l : trunk_)
    if (!l.read_optimizer_state(in, pos)) return false;
  for (auto& h : heads_)
    if (!h.read_optimizer_state(in, pos)) return false;
  return true;
}

}  // namespace oal::ml
