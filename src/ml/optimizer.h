// Pluggable parameter-update rules for the neural-network trainers.
//
// The batch training engine (ml/mlp.h) reduces minibatch gradients into one
// (gw, gb) pair per layer and hands them to an Optimizer for the actual
// parameter step.  Each layer owns one Optimizer instance, so per-layer
// state (momentum buffers, Adam moments, the bias-correction products)
// lives inside the optimizer and copies with the network (DQN target syncs
// clone optimizer state along with the weights, exactly as the pre-refactor
// per-layer Adam buffers did).
//
// Implementations must be deterministic: apply() may only depend on its
// arguments and the optimizer's own state, and must traverse parameters in
// row-major order so training stays bitwise reproducible.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"

namespace oal::ml {

/// Per-layer update rule: consumes the reduced minibatch gradients and steps
/// the parameters in place.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// One update step.  `w`/`b` are the layer parameters; `gw` points at the
  /// (already batch-averaged) weight gradient, w.rows() * w.cols() doubles in
  /// w's row-major order, and `gb` at b.size() bias-gradient doubles.  Raw
  /// pointers let the trainers hand over slices of their flat gradient
  /// buffers without copying.
  virtual void apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) = 0;

  /// Deep copy including accumulated state (moments, bias-correction products).
  virtual std::unique_ptr<Optimizer> clone() const = 0;

  /// Appends the accumulated state to `out` (the artifact wire format), so a
  /// network restored from it resumes training bit for bit where this one
  /// stopped.  Buffers that were never allocated are written as a 0 flag.
  virtual void export_state(std::vector<double>& out) const = 0;
  /// Reads back what export_state wrote for the layer parameters `w`/`b`
  /// (only their shapes are used); false, with the optimizer unchanged, on
  /// underrun or a malformed or non-finite value.
  virtual bool import_state(const std::vector<double>& in, std::size_t& pos, const common::Mat& w,
                            const common::Vec& b) = 0;
};

/// Optimizer selection carried by MlpConfig/DqnConfig (copyable config, the
/// polymorphic instances are materialized per layer by make_optimizer).
struct OptimizerConfig {
  enum class Kind { kSgd, kAdam };
  /// Adam is the default: it is the update rule this library has always
  /// used, and the Adam implementation is bitwise-identical to the
  /// pre-optimizer-interface per-layer update.
  Kind kind = Kind::kAdam;
  /// Sgd: classical momentum (0 = plain gradient descent).
  double momentum = 0.0;
  /// Adam moments/stability (SNIPPETS.md OptimizerAdam shape).
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Plain SGD with optional classical momentum and L2 weight decay:
///   v = momentum * v - lr * (g + l2 * w);  w += v.
class Sgd : public Optimizer {
 public:
  Sgd(double learning_rate, double l2, double momentum = 0.0);

  void apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) override;
  std::unique_ptr<Optimizer> clone() const override;
  /// {allocated flag, then vw, vb when allocated}.
  void export_state(std::vector<double>& out) const override;
  bool import_state(const std::vector<double>& in, std::size_t& pos, const common::Mat& w,
                    const common::Vec& b) override;

 private:
  double lr_;
  double l2_;
  double momentum_;
  common::Mat vw_;  ///< momentum buffers, lazily sized on first apply
  common::Vec vb_;
};

/// Adam (Kingma & Ba) with bias correction and L2 weight decay folded into
/// the gradient.  The bias corrections use running products beta^t, so the
/// whole step is repo code with no libm call.  The element loop is the
/// runtime-dispatched common::kernels adam kernel.
class Adam : public Optimizer {
 public:
  Adam(double learning_rate, double l2, double beta1 = 0.9, double beta2 = 0.999,
       double epsilon = 1e-8);

  void apply(common::Mat& w, common::Vec& b, const double* gw, const double* gb) override;
  std::unique_ptr<Optimizer> clone() const override;
  /// {beta1^t, beta2^t, allocated flag, then mw, vw, mb, vb when allocated}.
  void export_state(std::vector<double>& out) const override;
  bool import_state(const std::vector<double>& in, std::size_t& pos, const common::Mat& w,
                    const common::Vec& b) override;

 private:
  double lr_;
  double l2_;
  double beta1_;
  double beta2_;
  double eps_;
  /// beta^t after t steps, kept as running products (one multiply per
  /// step, no libm pow) for the bias corrections 1 - beta^t.
  double beta1_t_ = 1.0;
  double beta2_t_ = 1.0;
  common::Mat mw_, vw_;     ///< first/second moments, lazily sized
  common::Vec mb_, vb_;
};

/// Materializes the configured optimizer for one layer.
std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg, double learning_rate,
                                          double l2);

}  // namespace oal::ml
