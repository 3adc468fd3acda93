// Multi-layer perceptrons trained with backpropagation (paper Section IV-A3:
// "the policy is represented as a neural network and it is updated using the
// back-propagation algorithm").
//
// Training is batch-first and runs in a per-network TrainWorkspace that is
// reused across calls.  The forward pass and the input-gradient products run
// once over the whole minibatch (rows are independent), through the
// runtime-dispatched raw-pointer kernels of common/kernels.h.  Only the
// weight- and bias-gradient reductions are split into fixed 8-row shards,
// summed in ascending shard order and scaled by 1/B; the reduced gradient is
// handed to a pluggable ml::Optimizer (ml/optimizer.h) for the parameter
// step.  Both networks share that one backprop implementation.
//
// Two variants are provided:
//  * Mlp — generic regression network with linear outputs (the DQN
//    baseline's Q-network).
//  * MultiHeadClassifier — a shared trunk with one softmax head per control
//    knob; this is the IL policy representation (one head each for the
//    number of little/big cores and the little/big frequency levels).
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "ml/optimizer.h"

namespace oal::ml {

enum class Activation { kTanh, kRelu };

/// One dense layer.  Parameters plus the layer's optimizer; gradients live in
/// the owning network's TrainWorkspace.
class DenseLayer {
 public:
  DenseLayer(std::size_t in, std::size_t out, common::Rng& rng,
             std::unique_ptr<Optimizer> opt);
  DenseLayer(const DenseLayer& o);
  DenseLayer& operator=(const DenseLayer& o);
  DenseLayer(DenseLayer&&) = default;
  DenseLayer& operator=(DenseLayer&&) = default;

  /// Allocation-free forward: writes y = W*x + b into `y` (resized to
  /// out_dim(); no reallocation once capacity suffices).  `y` must not alias
  /// `x`.
  void forward_into(const common::Vec& x, common::Vec& y) const;

  /// One optimizer step on the (batch-averaged) gradients: gw holds
  /// out_dim() x in_dim() doubles row-major, gb out_dim() doubles.
  void apply(const double* gw, const double* gb);

  std::size_t in_dim() const { return w_.cols(); }
  std::size_t out_dim() const { return w_.rows(); }
  std::size_t num_params() const { return w_.rows() * w_.cols() + b_.size(); }

  const common::Mat& weights() const { return w_; }
  const common::Vec& bias() const { return b_; }

  /// Appends w (row-major) then b to `out` — the artifact-store wire format.
  /// Optimizer state is written separately (append_optimizer_state).
  void append_params(std::vector<double>& out) const;
  /// Reads back what append_params wrote (layer shape must already match);
  /// false, with the layer unchanged, on underrun or a non-finite value.
  bool read_params(const std::vector<double>& in, std::size_t& pos);
  /// The optimizer's accumulated state (Optimizer::export_state), so a
  /// restored layer resumes training bit for bit.
  void append_optimizer_state(std::vector<double>& out) const { opt_->export_state(out); }
  /// Reads back what append_optimizer_state wrote; false, with the layer
  /// unchanged, on a malformed state.
  bool read_optimizer_state(const std::vector<double>& in, std::size_t& pos) {
    return opt_->import_state(in, pos, w_, b_);
  }

 private:
  common::Mat w_;  // out x in
  common::Vec b_;  // out
  std::unique_ptr<Optimizer> opt_;
};

/// Scratch for one network's train_batch and forward_batch, reused across
/// calls: the transposed weights the forward pass reads, every layer's
/// activations and output deltas for the whole minibatch, the per-head
/// input-gradient partial sums, one flat gradient buffer per 8-row shard, and
/// the classifier's label probabilities.  Buffers only
/// grow, so once a network has trained on its largest batch size, train_batch
/// performs no heap allocation.  Nothing in it carries over from one call to
/// the next.
struct TrainWorkspace {
  std::vector<double> wt;       ///< transposed weights (in x out), layer after layer
  std::vector<double> acts;     ///< activations (B x out), layer after layer
  std::vector<double> deltas;   ///< dL/d(pre-activation) of the hidden layers
  std::vector<double> partial;  ///< one output part's input-gradient partial sum
  std::vector<double> grads;    ///< per-shard gradients, num_params() per shard
  std::vector<double> label_p;  ///< the classifier's label probabilities (B x heads)
};

struct MlpConfig {
  std::vector<std::size_t> hidden{32};
  Activation activation = Activation::kTanh;
  double learning_rate = 1e-3;
  double l2 = 0.0;
  std::uint64_t seed = 1;
  /// Update rule (ml/optimizer.h); default Adam matches the historical update.
  OptimizerConfig optimizer{};
};

/// Regression MLP with linear outputs, trained on (optionally masked) MSE.
class Mlp {
 public:
  Mlp(std::size_t input_dim, std::size_t output_dim, MlpConfig cfg = {});

  /// forward_into with throwaway buffers.
  common::Vec forward(const common::Vec& x) const;

  /// Reusable activation buffers for the allocation-free inference path.
  /// Sized lazily on first use (max layer width), then stable: a controller
  /// owning one InferScratch per network performs zero steady-state heap
  /// allocations per forward_into() call.
  struct InferScratch {
    common::Vec a, b;
  };
  /// Allocation-free inference into `out` (must not alias `x`).
  void forward_into(const common::Vec& x, common::Vec& out, InferScratch& s) const;

  /// Batch inference (rows = samples) through train_batch's forward pass in
  /// the network's workspace — hence non-const.  Each row is bitwise equal
  /// to forward() of that row: every output accumulates from 0.0 in
  /// ascending input index before the bias is added.
  common::Mat forward_batch(const common::Mat& x);

  /// One optimizer step on a minibatch (rows = samples) on the mean of
  /// 0.5*||mask .* (f(x) - target)||^2; returns the mean per-sample loss.
  /// mask, when given, has the same shape as targets (nullptr means all
  /// outputs contribute).
  /// Allocation-free once the workspace has grown to the batch size.
  double train_batch(const common::Mat& x, const common::Mat& targets,
                     const common::Mat* mask = nullptr);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }

  /// Copies all parameters (and optimizer state) from another network of
  /// identical shape (used for DQN target networks).
  void copy_params_from(const Mlp& other);

  /// Appends every layer's parameters to `out` (see DenseLayer::append_params).
  void export_params(std::vector<double>& out) const;

 private:
  std::size_t input_dim_;
  std::size_t output_dim_;
  MlpConfig cfg_;
  std::vector<DenseLayer> layers_;
  TrainWorkspace ws_;
};

/// Shared-trunk multi-head softmax classifier: the IL policy network.
class MultiHeadClassifier {
 public:
  /// head_sizes[h] = number of classes of head h.
  MultiHeadClassifier(std::size_t input_dim, std::vector<std::size_t> head_sizes,
                      MlpConfig cfg = {});

  /// predict_into with throwaway buffers.
  std::vector<std::size_t> predict(const common::Vec& x) const;

  /// Reusable trunk/logit buffers for the allocation-free decision path.
  struct InferScratch {
    common::Vec a, b, logits;
  };
  /// Per-head argmax class written into `cls` (resized to num_heads()),
  /// taken directly from the head logits with a first-max tie-break.  The
  /// softmax is monotone, so inference never computes it.  Zero heap
  /// allocations once the scratch buffers have grown to the layer widths.
  void predict_into(const common::Vec& x, std::vector<std::size_t>& cls, InferScratch& s) const;

  /// One optimizer step on the summed cross-entropy of all heads over a
  /// minibatch (rows = samples); labels[i] holds one class per head for
  /// sample i.  Returns the mean per-sample loss.
  /// Allocation-free once the workspace has grown to the batch size.
  double train_batch(const common::Mat& x,
                     const std::vector<std::vector<std::size_t>>& labels);

  /// Mini-batch training; returns mean loss of the final epoch.
  double train(const std::vector<common::Vec>& xs,
               const std::vector<std::vector<std::size_t>>& labels, std::size_t epochs,
               std::size_t batch_size, common::Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t num_heads() const { return heads_.size(); }
  std::size_t num_params() const;

  /// Appends trunk then head parameters to `out`.
  void export_params(std::vector<double>& out) const;
  /// Restores into an identically-shaped classifier; false on underrun.
  bool import_params(const std::vector<double>& in, std::size_t& pos);
  /// Appends every layer's optimizer state, trunk then heads: with the
  /// parameters, everything train() continues from.
  void export_optimizer_state(std::vector<double>& out) const;
  /// Inverse of export_optimizer_state; false on a malformed state (layers
  /// before the bad one are already restored, so stage into a copy).
  bool import_optimizer_state(const std::vector<double>& in, std::size_t& pos);
  /// Storage footprint in bytes assuming 4-byte fixed-point parameters (the
  /// paper stores the policy in <20 KB of firmware memory).
  std::size_t storage_bytes() const { return num_params() * 4; }

 private:
  /// One pass over the dataset in minibatches of `batch_size`; sample order
  /// is drawn from the caller's seeded rng.  Returns the mean loss.
  double train_epoch(const std::vector<common::Vec>& xs,
                     const std::vector<std::vector<std::size_t>>& labels,
                     std::size_t batch_size, common::Rng& rng);

  std::size_t input_dim_;
  MlpConfig cfg_;
  std::vector<DenseLayer> trunk_;
  std::vector<DenseLayer> heads_;
  std::vector<std::size_t> head_sizes_;
  TrainWorkspace ws_;
};

}  // namespace oal::ml
