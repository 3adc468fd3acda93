// Reinforcement-learning DRM baselines (paper Section IV-A2).
//
// Both RL variants act on *relative* knob moves (one knob +/-1 per step, or
// hold), learn from a negative-energy-per-instruction reward, and explore
// epsilon-greedily.  These are the baselines whose slow convergence Figs. 3
// and 4 contrast with model-guided online IL:
//  * QLearningController — table-based (paper: "not practical due to the
//    large storage requirement"; the table grows with every visited state).
//  * DqnController — deep-Q (paper: needs a reward function and a large
//    data-set due to trial-and-error learning).
#pragma once

#include <cstdint>

#include "core/controller.h"
#include "core/features.h"
#include "ml/dqn.h"
#include "ml/qlearn.h"

namespace oal::core {

/// 9 actions: hold, or +/-1 on one of the four knobs.
constexpr std::size_t kNumRlActions = 9;
soc::SocConfig apply_rl_action(const soc::ConfigSpace& space, const soc::SocConfig& c,
                               std::size_t action);

struct RlRewardScale {
  /// reward = -(energy / instructions) * scale, roughly in [-3, 0].
  double nj_per_inst_scale = 1.0e9;
};

class QLearningController : public DrmController {
 public:
  /// `thermal_aware` folds a budget-headroom bucket into the discretized RL
  /// state (published by the runner's telemetry channel), so the table can
  /// learn different actions for throttled and unthrottled regimes.
  QLearningController(const soc::ConfigSpace& space, ml::QLearnConfig cfg = {},
                      RlRewardScale scale = {}, bool thermal_aware = false);

  std::string name() const override { return "RL (tabular Q)"; }
  soc::SocConfig step(const soc::SnippetResult& result, const soc::SocConfig& executed) override;
  void begin_run(const soc::SocConfig& initial) override;
  void observe_telemetry(const soc::ThermalTelemetry& telemetry) override;

  std::size_t table_states() const { return q_.num_states_visited(); }
  std::size_t storage_bytes() const { return q_.storage_bytes(); }

  /// Persists / restores the learned Q-table plus exploration state (the
  /// ml::TabularQ wire format), letting a warm process skip a pretraining
  /// run: the restored controller's next run is bitwise identical to the
  /// original's.  Per-run state (prev state/action) is excluded — begin_run
  /// resets it anyway.  A rejected import (malformed or trailing data)
  /// leaves the controller unchanged.
  std::vector<double> export_artifact() const;
  bool import_artifact(const std::vector<double>& in);

 private:
  std::uint64_t discretize(const soc::PerfCounters& k, const soc::SocConfig& c) const;

  const soc::ConfigSpace* space_;
  ml::TabularQ q_;
  RlRewardScale scale_;
  bool thermal_aware_ = false;
  bool has_prev_ = false;
  std::uint64_t prev_state_ = 0;
  std::size_t prev_action_ = 0;
  soc::ThermalTelemetry telemetry_;
};

class DqnController : public DrmController {
 public:
  /// `thermal_aware` extends the network input with the thermal-telemetry
  /// features (see FeatureExtractor), so the Q-network conditions on
  /// temperature/budget headroom.
  DqnController(const soc::ConfigSpace& space, ml::DqnConfig cfg = {}, RlRewardScale scale = {},
                bool thermal_aware = false);

  std::string name() const override { return "RL (DQN)"; }
  soc::SocConfig step(const soc::SnippetResult& result, const soc::SocConfig& executed) override;
  void begin_run(const soc::SocConfig& initial) override;
  void observe_telemetry(const soc::ThermalTelemetry& telemetry) override;

 private:
  const soc::ConfigSpace* space_;
  FeatureExtractor fx_;
  ml::Dqn dqn_;
  RlRewardScale scale_;
  bool has_prev_ = false;
  common::Vec prev_state_;
  /// Per-step feature scratch: sized once on the first step, then reused so
  /// steady-state decide() never allocates.
  common::Vec state_buf_;
  std::size_t prev_action_ = 0;
  soc::ThermalTelemetry telemetry_;
};

}  // namespace oal::core
