// Imitation-learning policy (paper Section IV-A).
//
// A multi-head neural network (one softmax head per control knob) that
// approximates the Oracle: state -> (num little, num big, f_little, f_big).
// The whole network fits in a few kilobytes — the paper stresses that the
// runtime policy, unlike the Oracle, must be small enough for an OS governor
// or firmware (<20 KB including the online training buffer).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/oracle.h"
#include "ml/mlp.h"
#include "ml/scaler.h"
#include "soc/config_space.h"
#include "soc/counters.h"

namespace oal::core {

class ArtifactStore;

/// Every field shapes the trained weights, so il_policy_config_hash folds
/// each one: a new field must join it.
struct IlPolicyConfig {
  std::vector<std::size_t> hidden{24, 24};
  /// One optimizer step per minibatch: the policy takes batch_size-x fewer
  /// (but smoother) steps per epoch than the old per-sample trainer, so the
  /// default rate is correspondingly larger.  batch_size 16 / lr 2.5e-2
  /// reproduces the pre-batching fig3 convergence point (t = 7.4 s) exactly
  /// at a fraction of the optimizer-step cost.
  double learning_rate = 2.5e-2;
  double l2 = 1e-5;
  std::size_t offline_epochs = 40;
  std::size_t batch_size = 16;  ///< minibatch rows per optimizer step
  std::uint64_t seed = 42;
  /// Sizes the input layer for the thermal-aware policy state (see
  /// FeatureExtractor); must match the extractor that produced the training
  /// states.  The default (blind) network is unchanged.
  bool thermal_aware = false;
  /// Update rule (ml/optimizer.h); benches can swap it per arm.
  ml::OptimizerConfig optimizer{};
};

class IlPolicy {
 public:
  IlPolicy(const soc::ConfigSpace& space, IlPolicyConfig cfg = {});

  /// Offline training: fits the feature scaler and the network on an
  /// Oracle-labeled dataset.  Returns final-epoch mean cross-entropy.
  double train_offline(const PolicyDataset& data, common::Rng& rng);

  /// Incremental training on aggregated runtime data (scaler stays frozen so
  /// the input space of the deployed network is stable).
  double train_incremental(const PolicyDataset& data, std::size_t epochs, common::Rng& rng);

  /// Greedy policy decision from a raw (unscaled) state vector:
  /// decide(state, scratch) with throwaway buffers.
  soc::SocConfig decide(const common::Vec& state) const;

  /// Caller-owned scratch for the allocation-free decision path.  The
  /// buffers grow to the policy dimensions on first use and are then stable,
  /// so each decide(state, scratch) performs zero heap allocations.  The
  /// scratch is caller-owned (not a policy member) because one const
  /// IlPolicy is shared read-only across parallel scenario arms — each arm
  /// brings its own scratch and the policy stays thread-safe.
  struct Scratch {
    ml::StandardScaler::TransformCache scaler;
    common::Vec z;                              ///< scaled state
    ml::MultiHeadClassifier::InferScratch net;  ///< trunk/logit buffers
    std::vector<std::size_t> cls;               ///< per-head argmax
  };
  /// Allocation-free decide: scales the state, then takes each head's
  /// argmax from its logits (MultiHeadClassifier::predict_into).
  soc::SocConfig decide(const common::Vec& state, Scratch& scratch) const;

  bool trained() const { return trained_; }
  const IlPolicyConfig& config() const { return cfg_; }
  std::size_t num_params() const { return net_.num_params(); }
  std::size_t storage_bytes() const { return net_.storage_bytes(); }

  /// Wall-time this object (and the policy it was copied from) spent in
  /// train_offline/train_incremental (seconds).  Not part of the artifact:
  /// a restored policy starts at 0.
  double train_time_s() const { return train_time_s_; }
  /// Mean cross-entropy of the most recent training call's final epoch.
  double last_train_loss() const { return last_train_loss_; }

  /// Revision of the training arithmetic (activations, softmax, optimizer)
  /// and of the artifact layout, stored first in every artifact and hashed
  /// into offline_policy_key.  Bump it whenever a change alters trained
  /// bits, or a warm store would restore weights the current code would not
  /// train.
  /// Revision 2: the common::kernels tanh/exp/log rows and Adam without pow.
  /// Revision 3: no wall-clock train_time_s in the header; optimizer state
  /// appended, so a restored policy adapts online bit for bit.
  /// Revision-1 blobs start with the trained flag (0 or 1) instead.
  static constexpr double kTrainingMathRevision = 3.0;

  /// Flattens everything a warm process needs to skip train_offline: the
  /// training-math revision, the trained flag, last_train_loss (so JSONL
  /// records emitted from a restored policy bitwise-match the cold run that
  /// stored it), scaler state, network weights, and the optimizer state
  /// train_incremental continues from.  A pure function of the training
  /// inputs: two trainings of the same data, config and seed export the
  /// same bytes.
  std::vector<double> export_artifact() const;
  /// Restores what export_artifact produced into an identically-configured
  /// policy; false (policy unchanged) on another training-math revision,
  /// shape mismatch, truncation, trailing data, a malformed header, or any
  /// non-finite parameter.  train_time_s() reads 0 after a restore.
  bool import_artifact(const std::vector<double>& in);

 private:
  double train(const PolicyDataset& data, std::size_t epochs, common::Rng& rng);

  IlPolicyConfig cfg_;
  ml::StandardScaler scaler_;
  ml::MultiHeadClassifier net_;
  bool trained_ = false;
  double train_time_s_ = 0.0;
  double last_train_loss_ = 0.0;
};

/// FNV-1a over every IlPolicyConfig field (hidden widths, learning rate,
/// l2, epochs, batch size, init seed, feature space, and every optimizer
/// field).  Each store key of a trained policy mixes it in.
std::uint64_t il_policy_config_hash(const IlPolicyConfig& cfg);

/// Content address of the "il-policy" blob: FNV-1a over the dataset's own
/// export_artifact() doubles, il_policy_config_hash(cfg), the train seed
/// and IlPolicy::kTrainingMathRevision — everything offline_policy's
/// training reads, so the key cannot drift from what was trained.
std::uint64_t offline_policy_key(const OfflineData& off, const IlPolicyConfig& cfg,
                                 std::uint64_t train_seed);

/// The one path to an offline-trained IL policy: an IlPolicy(space, cfg)
/// trained by train_offline on `off.policy` with Rng(train_seed).  With a
/// `store`, it is restored from, or computed into, the "il-policy" blob at
/// offline_policy_key.  The result is shared read-only: frozen arms use it
/// as is, online arms copy it (online_il_factory).
std::shared_ptr<const IlPolicy> offline_policy(const OfflineData& off,
                                               const soc::ConfigSpace& space,
                                               const IlPolicyConfig& cfg, std::uint64_t train_seed,
                                               ArtifactStore* store);

}  // namespace oal::core
