// Model-guided online imitation learning (paper Section IV-A3).
//
// The controller combines three elements, exactly following the paper:
//  1. Online power/performance models (OnlineSocModels) updated after every
//     snippet from the Table-I counters.
//  2. A runtime approximation of the Oracle: before each decision, the
//     models score all candidate configurations in a local neighborhood of
//     the current configuration (plus the policy's own suggestion); the
//     argmin is both the next applied configuration and the supervision
//     label.
//  3. An aggregation buffer: (state, label) pairs accumulate; when the
//     buffer reaches capacity (default 100, the paper's "100 epochs ...
//     <20 KB" setting) the policy is retrained by backpropagation on the
//     aggregated data and the buffer is reset.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>

#include "core/controller.h"
#include "core/il_policy.h"
#include "core/models.h"

namespace oal::core {

struct OnlineIlConfig {
  std::size_t buffer_capacity = 100;   ///< decisions between policy updates
  std::size_t update_epochs = 15;      ///< backprop epochs per update
  std::size_t aggregate_capacity = 1600;  ///< DAgger-style dataset cap
  int neighborhood_radius = 1;
  int max_changed_knobs = 4;
  /// Also score per-cluster (cores x frequency) joint sweeps; single-knob
  /// moves cannot cross the off-cluster/on-cluster energy valley.
  bool include_cluster_sweeps = true;
  bool include_policy_candidate = true;
  /// Occasional exploratory configuration (epsilon-greedy over the candidate
  /// set) keeps the online models informative outside the current operating
  /// point; without it model-guided search can lock into self-confirming
  /// states it has never observed alternatives to.
  double explore_init = 0.10;
  double explore_min = 0.03;
  double explore_decay = 0.995;
  /// When the time model's a-priori innovation exceeds this (log space, i.e.
  /// ~20% relative error), a workload change is assumed and exploration is
  /// re-armed to explore_rearm so the models re-learn the new region quickly.
  double innovation_reset_threshold = 0.20;
  double explore_rearm = 0.25;
  std::uint64_t seed = 2021;
  /// Thermal-aware mode: the policy state carries the runner's telemetry
  /// (temperatures + budget, see soc::ThermalTelemetry) and the runtime
  /// Oracle search is restricted to candidates whose *predicted* power fits
  /// the published budget — the controller proposes budget-feasible configs
  /// instead of being clamped after the fact, and the supervision labels
  /// teach the policy the same behavior.  Off (default): bitwise-identical
  /// to the blind controller, telemetry ignored.
  bool thermal_aware = false;
  /// Network/training configuration of the arm's offline policy (optimizer,
  /// learning rate, batch size — swappable per arm).  thermal_aware above
  /// wins over policy.thermal_aware: see policy_config().
  IlPolicyConfig policy{};

  /// The IlPolicyConfig this arm's offline policy is trained with.
  IlPolicyConfig policy_config() const {
    IlPolicyConfig p = policy;
    p.thermal_aware = thermal_aware;
    return p;
  }
};

class OnlineIlController : public DrmController {
 public:
  /// Takes ownership of nothing: policy and models are injected so the same
  /// offline artifacts can be shared across experiment arms.
  OnlineIlController(const soc::ConfigSpace& space, IlPolicy& policy, OnlineSocModels& models,
                     OnlineIlConfig cfg = {});

  std::string name() const override {
    return cfg_.thermal_aware ? "Online-IL (thermal)" : "Online-IL";
  }
  soc::SocConfig step(const soc::SnippetResult& result, const soc::SocConfig& executed) override;
  std::optional<soc::SocConfig> last_policy_decision() const override { return last_policy_; }
  void observe_telemetry(const soc::ThermalTelemetry& telemetry) override;
  /// Resets the telemetry snapshot to neutral (learned state is kept): a
  /// reused controller must not carry a previous run's thermal regime into
  /// a run with no telemetry source.
  void begin_run(const soc::SocConfig& initial) override;

  std::size_t policy_updates() const { return policy_updates_; }
  std::size_t buffer_fill() const { return buffer_fill_; }
  double exploration_rate() const { return explore_; }
  /// Wall-time the injected policy has spent in backprop so far (seconds).
  double policy_train_time_s() const { return policy_->train_time_s(); }
  /// Final-epoch loss of the policy's most recent (re)training.
  double policy_train_loss() const { return policy_->last_train_loss(); }

 private:
  /// Appends the buffered decisions to the aggregate and retrains the
  /// policy on it: the amortized work outside the per-decision hot path.
  void retrain_policy();

  const soc::ConfigSpace* space_;
  IlPolicy* policy_;
  OnlineSocModels* models_;
  FeatureExtractor fx_;
  OnlineIlConfig cfg_;
  common::Rng rng_;

  // Supervision since the last retrain: buffer_fill_ rows of policy_dim()
  // states (row-major, preallocated) and their labels.
  common::Vec buffer_states_;
  std::vector<soc::SocConfig> buffer_labels_;
  std::size_t buffer_fill_ = 0;
  std::deque<common::Vec> agg_states_;
  std::deque<soc::SocConfig> agg_labels_;
  std::optional<soc::SocConfig> last_policy_;
  std::size_t policy_updates_ = 0;
  double explore_ = 0.0;
  bool last_was_exploratory_ = false;
  double innov_ewma_ = 0.0;
  soc::ThermalTelemetry telemetry_;  ///< latest runner snapshot (neutral until published)

  // Per-decision scratch, sized on the first step and reused after, so a
  // step between retrains performs no heap allocation.
  DecisionBasis decision_;  ///< this decision's basis and model products
  common::Vec state_buf_;
  IlPolicy::Scratch policy_scratch_;
  std::vector<soc::SocConfig> candidates_;
  std::vector<soc::SocConfig> sweeps_;
  std::vector<soc::SocConfig> explore_pool_;
  std::vector<DecisionBasis::Score> scores_;  ///< per candidate, scored once
};

/// Pure offline-IL controller: applies the frozen policy with no adaptation
/// (the Table II arm).
class OfflineIlController : public DrmController {
 public:
  OfflineIlController(const soc::ConfigSpace& space, const IlPolicy& policy);

  std::string name() const override { return "Offline-IL"; }
  soc::SocConfig step(const soc::SnippetResult& result, const soc::SocConfig& executed) override;
  std::optional<soc::SocConfig> last_policy_decision() const override { return last_policy_; }

 private:
  const IlPolicy* policy_;
  FeatureExtractor fx_;
  std::optional<soc::SocConfig> last_policy_;
  common::Vec state_buf_;          ///< per-step feature scratch
  IlPolicy::Scratch policy_scratch_;
};

}  // namespace oal::core
