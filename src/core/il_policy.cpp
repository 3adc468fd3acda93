#include "core/il_policy.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/fnv.h"
#include "core/artifact_store.h"

namespace oal::core {

namespace {
ml::MlpConfig make_net_config(const IlPolicyConfig& cfg) {
  ml::MlpConfig m;
  m.hidden = cfg.hidden;
  m.activation = ml::Activation::kTanh;
  m.learning_rate = cfg.learning_rate;
  m.l2 = cfg.l2;
  m.seed = cfg.seed;
  m.optimizer = cfg.optimizer;
  return m;
}
}  // namespace

IlPolicy::IlPolicy(const soc::ConfigSpace& space, IlPolicyConfig cfg)
    : cfg_(cfg),
      net_(FeatureExtractor(space, cfg.thermal_aware).policy_dim(), space.knob_cardinalities(),
           make_net_config(cfg)) {}

double IlPolicy::train(const PolicyDataset& data, std::size_t epochs, common::Rng& rng) {
  std::vector<common::Vec> xs;
  std::vector<std::vector<std::size_t>> ys;
  xs.reserve(data.states.size());
  ys.reserve(data.labels.size());
  for (std::size_t i = 0; i < data.states.size(); ++i) {
    xs.push_back(scaler_.transform(data.states[i]));
    ys.push_back(labels_of(data.labels[i]));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const double loss = net_.train(xs, ys, epochs, cfg_.batch_size, rng);
  train_time_s_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  last_train_loss_ = loss;
  return loss;
}

double IlPolicy::train_offline(const PolicyDataset& data, common::Rng& rng) {
  if (data.states.empty() || data.states.size() != data.labels.size())
    throw std::invalid_argument("IlPolicy::train_offline: bad dataset");
  scaler_ = ml::StandardScaler();
  scaler_.fit(data.states);
  const double loss = train(data, cfg_.offline_epochs, rng);
  trained_ = true;
  return loss;
}

double IlPolicy::train_incremental(const PolicyDataset& data, std::size_t epochs,
                                   common::Rng& rng) {
  if (!trained_) throw std::logic_error("IlPolicy::train_incremental before train_offline");
  if (data.states.empty() || data.states.size() != data.labels.size())
    throw std::invalid_argument("IlPolicy::train_incremental: bad dataset");
  return train(data, epochs, rng);
}

soc::SocConfig IlPolicy::decide(const common::Vec& state) const {
  Scratch s;
  return decide(state, s);
}

// oal-lint: hot-path
soc::SocConfig IlPolicy::decide(const common::Vec& state, Scratch& s) const {
  if (!trained_) throw std::logic_error("IlPolicy::decide before training");
  scaler_.transform_into(state, s.z, s.scaler);
  net_.predict_into(s.z, s.cls, s.net);
  return config_of(s.cls);
}
// oal-lint: hot-path-end

std::vector<double> IlPolicy::export_artifact() const {
  std::vector<double> out;
  out.push_back(kTrainingMathRevision);
  out.push_back(trained_ ? 1.0 : 0.0);
  out.push_back(last_train_loss_);
  scaler_.export_state(out);
  net_.export_params(out);
  net_.export_optimizer_state(out);
  return out;
}

bool IlPolicy::import_artifact(const std::vector<double>& in) {
  // Header: training-math revision, trained flag, last_train_loss.
  if (in.size() < 3) return false;
  if (in[0] != kTrainingMathRevision) return false;
  if ((in[1] != 0.0 && in[1] != 1.0) || !std::isfinite(in[2])) return false;
  // Stage into copies so a truncated/mismatched artifact leaves *this intact.
  ml::StandardScaler scaler = scaler_;
  ml::MultiHeadClassifier net = net_;
  std::size_t pos = 3;
  if (!scaler.import_state(in, pos)) return false;
  if (!net.import_params(in, pos)) return false;
  if (!net.import_optimizer_state(in, pos)) return false;
  if (pos != in.size()) return false;  // trailing garbage: not our artifact
  // A trained policy scales exactly the network's input features.
  if (in[1] != 0.0 && scaler.dim() != net.input_dim()) return false;
  trained_ = in[1] != 0.0;
  train_time_s_ = 0.0;
  last_train_loss_ = in[2];
  scaler_ = std::move(scaler);
  net_ = std::move(net);
  return true;
}

std::uint64_t il_policy_config_hash(const IlPolicyConfig& cfg) {
  std::uint64_t h = common::kFnvOffsetBasis;
  common::fnv1a_mix(h, cfg.hidden.size());
  for (std::size_t width : cfg.hidden) common::fnv1a_mix(h, width);
  common::fnv1a_mix_double(h, cfg.learning_rate);
  common::fnv1a_mix_double(h, cfg.l2);
  common::fnv1a_mix(h, cfg.offline_epochs);
  common::fnv1a_mix(h, cfg.batch_size);
  common::fnv1a_mix(h, cfg.seed);
  common::fnv1a_mix(h, cfg.thermal_aware ? 1 : 0);
  common::fnv1a_mix(h, static_cast<std::uint64_t>(cfg.optimizer.kind));
  common::fnv1a_mix_double(h, cfg.optimizer.momentum);
  common::fnv1a_mix_double(h, cfg.optimizer.beta1);
  common::fnv1a_mix_double(h, cfg.optimizer.beta2);
  common::fnv1a_mix_double(h, cfg.optimizer.epsilon);
  return h;
}

std::uint64_t offline_policy_key(const OfflineData& off, const IlPolicyConfig& cfg,
                                 std::uint64_t train_seed) {
  std::uint64_t key = common::kFnvOffsetBasis;
  for (double v : off.export_artifact()) common::fnv1a_mix_double(key, v);
  common::fnv1a_mix(key, il_policy_config_hash(cfg));
  common::fnv1a_mix(key, train_seed);
  common::fnv1a_mix_double(key, IlPolicy::kTrainingMathRevision);
  return key;
}

std::shared_ptr<const IlPolicy> offline_policy(const OfflineData& off,
                                               const soc::ConfigSpace& space,
                                               const IlPolicyConfig& cfg, std::uint64_t train_seed,
                                               ArtifactStore* store) {
  // Hashing the dataset costs a pass over it: only a store reads the key.
  const std::uint64_t key = store ? offline_policy_key(off, cfg, train_seed) : 0;
  return std::make_shared<const IlPolicy>(
      get_or_compute(store, "il-policy", key, IlPolicy(space, cfg), [&](IlPolicy& policy) {
        common::Rng rng(train_seed);
        policy.train_offline(off.policy, rng);
      }));
}

}  // namespace oal::core
