#include "core/rl_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace oal::core {

soc::SocConfig apply_rl_action(const soc::ConfigSpace& space, const soc::SocConfig& c,
                               std::size_t action) {
  soc::SocConfig n = c;
  switch (action) {
    case 0: break;  // hold
    case 1: n.num_little += 1; break;
    case 2: n.num_little -= 1; break;
    case 3: n.num_big += 1; break;
    case 4: n.num_big -= 1; break;
    case 5: n.little_freq_idx += 1; break;
    case 6: n.little_freq_idx -= 1; break;
    case 7: n.big_freq_idx += 1; break;
    case 8: n.big_freq_idx -= 1; break;
    default: break;
  }
  // Clamp each knob to its legal range (an out-of-range move degrades to hold
  // on that knob, as a real governor interface would).
  n.num_little = std::clamp(n.num_little, 1, 4);
  n.num_big = std::clamp(n.num_big, 0, 4);
  n.little_freq_idx =
      std::clamp(n.little_freq_idx, 0, static_cast<int>(space.little_freqs().size()) - 1);
  n.big_freq_idx = std::clamp(n.big_freq_idx, 0, static_cast<int>(space.big_freqs().size()) - 1);
  return n;
}

namespace {

int bucket(double v, std::initializer_list<double> edges) {
  int b = 0;
  for (double e : edges) {
    if (v < e) return b;
    ++b;
  }
  return b;
}

double reward_of(const soc::SnippetResult& r, const RlRewardScale& s) {
  const double instr = std::max(r.counters.instructions_retired, 1.0);
  return -(r.energy_j / instr) * s.nj_per_inst_scale;
}

}  // namespace

QLearningController::QLearningController(const soc::ConfigSpace& space, ml::QLearnConfig cfg,
                                         RlRewardScale scale, bool thermal_aware)
    : space_(&space), q_(kNumRlActions, cfg), scale_(scale), thermal_aware_(thermal_aware) {}

void QLearningController::observe_telemetry(const soc::ThermalTelemetry& telemetry) {
  telemetry_ = telemetry;
}

std::uint64_t QLearningController::discretize(const soc::PerfCounters& k,
                                              const soc::SocConfig& c) const {
  const WorkloadFeatures w = workload_features(k, c);
  // Fixed array: the discretization runs on every decide() and must stay
  // allocation-free.  Component order matches the old vector form exactly.
  int comps[9];
  std::size_t n = 0;
  comps[n++] = bucket(w.mpki, {1.0, 3.0, 6.0, 10.0});
  comps[n++] = bucket(w.bmpki, {2.0, 5.0});
  comps[n++] = bucket(w.pf_proxy, {0.2, 0.5});
  comps[n++] = bucket(k.big_cluster_utilization, {0.05, 0.5});
  comps[n++] = c.num_little;
  comps[n++] = c.num_big;
  comps[n++] = c.little_freq_idx / 5;
  comps[n++] = c.big_freq_idx / 5;
  if (thermal_aware_) {
    // Budget-headroom regime: deep throttle / tight / slack / unconstrained.
    comps[n++] = telemetry_.constrained ? bucket(telemetry_.headroom_w(), {0.0, 0.5, 1.5}) : 4;
  }
  return ml::hash_state(comps, n);
}

void QLearningController::begin_run(const soc::SocConfig& /*initial*/) {
  has_prev_ = false;
  // Back to the neutral snapshot: a reused controller must not carry the
  // previous run's thermal regime into a run with no telemetry source.
  telemetry_ = soc::ThermalTelemetry{};
}

// oal-lint: hot-path
soc::SocConfig QLearningController::step(const soc::SnippetResult& result,
                                         const soc::SocConfig& executed) {
  const std::uint64_t state = discretize(result.counters, executed);
  if (has_prev_) q_.update(prev_state_, prev_action_, reward_of(result, scale_), state);
  const std::size_t action = q_.select_action(state);
  prev_state_ = state;
  prev_action_ = action;
  has_prev_ = true;
  return apply_rl_action(*space_, executed, action);
}
// oal-lint: hot-path-end

std::vector<double> QLearningController::export_artifact() const {
  std::vector<double> out;
  q_.export_state(out);
  return out;
}

bool QLearningController::import_artifact(const std::vector<double>& in) {
  // Stage into a copy so trailing data leaves the controller unchanged.
  ml::TabularQ q = q_;
  std::size_t pos = 0;
  if (!q.import_state(in, pos) || pos != in.size()) return false;
  q_ = std::move(q);
  return true;
}

DqnController::DqnController(const soc::ConfigSpace& space, ml::DqnConfig cfg, RlRewardScale scale,
                             bool thermal_aware)
    : space_(&space), fx_(space, thermal_aware), dqn_(fx_.policy_dim(), kNumRlActions, cfg),
      scale_(scale) {}

void DqnController::observe_telemetry(const soc::ThermalTelemetry& telemetry) {
  telemetry_ = telemetry;
}

void DqnController::begin_run(const soc::SocConfig& /*initial*/) {
  has_prev_ = false;
  telemetry_ = soc::ThermalTelemetry{};  // see QLearningController::begin_run
}

// oal-lint: hot-path
soc::SocConfig DqnController::step(const soc::SnippetResult& result,
                                   const soc::SocConfig& executed) {
  fx_.policy_features_into(result.counters, executed, state_buf_, telemetry_);
  common::Vec& state = state_buf_;
  // Squash the unbounded counter-rate features for network stability.
  for (double& v : state) v = std::tanh(v * 0.2);
  if (has_prev_) dqn_.observe(prev_state_, prev_action_, reward_of(result, scale_), state);
  const std::size_t action = dqn_.select_action(state);
  prev_state_ = state;  // equal-size copy after the first step: no allocation
  prev_action_ = action;
  has_prev_ = true;
  return apply_rl_action(*space_, executed, action);
}
// oal-lint: hot-path-end

}  // namespace oal::core
