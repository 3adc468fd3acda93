#include "core/online_il.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "soc/thermal_platform.h"

namespace oal::core {

OnlineIlController::OnlineIlController(const soc::ConfigSpace& space, IlPolicy& policy,
                                       OnlineSocModels& models, OnlineIlConfig cfg)
    : space_(&space), policy_(&policy), models_(&models), fx_(space, cfg.thermal_aware),
      cfg_(cfg), rng_(cfg.seed), explore_(cfg.explore_init), decision_(space) {
  // A zero capacity retrains after every decision, so one row suffices.
  const std::size_t rows = std::max<std::size_t>(cfg_.buffer_capacity, 1);
  buffer_states_.assign(rows * fx_.policy_dim(), 0.0);
  buffer_labels_.resize(rows);
}

void OnlineIlController::observe_telemetry(const soc::ThermalTelemetry& telemetry) {
  telemetry_ = telemetry;
}

void OnlineIlController::begin_run(const soc::SocConfig& /*initial*/) {
  telemetry_ = soc::ThermalTelemetry{};
}

// oal-lint: hot-path
soc::SocConfig OnlineIlController::step(const soc::SnippetResult& result,
                                        const soc::SocConfig& executed) {
  const soc::PerfCounters& k = result.counters;
  const WorkloadFeatures w = workload_features(k, executed);

  // 1. Adapt the online models with the new observation.  Sustained large
  //    innovation signals a workload change: re-arm exploration.  Innovation
  //    from a deliberately exploratory configuration is expected (the model
  //    has not seen that region) and must NOT re-arm, or exploration becomes
  //    self-sustaining.  The update also leaves this decision's basis and
  //    the updated models' product tables in decision_, from which every
  //    candidate below is scored.
  const double innovation = models_->update(
      ModelSample{w, executed, result.exec_time_s, k.instructions_retired, result.avg_power_w},
      decision_);
  if (!last_was_exploratory_) {
    innov_ewma_ = 0.7 * innov_ewma_ + 0.3 * std::abs(innovation);
    if (innov_ewma_ > cfg_.innovation_reset_threshold) {
      explore_ = std::max(explore_, cfg_.explore_rearm);
      innov_ewma_ = 0.0;  // one re-arm per detected change
    }
  }

  // 2. Policy decision (recorded for accuracy-vs-Oracle tracking).
  fx_.policy_features_into(k, executed, state_buf_, telemetry_);
  const common::Vec& state = state_buf_;
  const soc::SocConfig policy_cfg = policy_->decide(state, policy_scratch_);
  last_policy_ = policy_cfg;

  // 3. Runtime Oracle approximation: models score the local neighborhood,
  //    the per-cluster sweeps, and the policy's suggestion (so a converged
  //    policy can jump directly).  The candidate buffers keep their capacity
  //    across steps, so appending does not allocate once warmed up.
  std::vector<soc::SocConfig>& candidates = candidates_;
  space_->neighborhood_into(executed, cfg_.neighborhood_radius, cfg_.max_changed_knobs,
                            candidates);
  if (cfg_.include_cluster_sweeps) {
    space_->cluster_sweeps_into(executed, sweeps_);
    // oal-lint: allow(hot-path-alloc)
    candidates.insert(candidates.end(), sweeps_.begin(), sweeps_.end());
  }
  // oal-lint: allow(hot-path-alloc)
  if (cfg_.include_policy_candidate) candidates.push_back(policy_cfg);

  // Thermal-aware mode under an active budget: internalize the budgeter.
  // Every candidate the power model predicts to exceed the published budget
  // is throttled down the same ladder the firmware arbiter uses (big
  // frequency, big cores, little frequency, little cores; floor 1 LITTLE
  // core at fmin) — but using the controller's own learned model, since
  // runtime policies never see the platform's ground-truth power.  The
  // search then optimizes over budget-feasible configurations *including*
  // the efficient boundary configs the clamp ladder would land on, so the
  // proposal (and the supervision label the policy trains on) avoids the
  // arbiter instead of fighting it.
  //
  // Candidate power is anchored to the *measured* power of the executed
  // configuration: predicted ratios between nearby configs are far more
  // accurate than predicted levels, so scaling the measurement by the
  // predicted ratio cancels the model's level error at the operating point
  // (exactly where feasibility is decided).
  std::vector<soc::SocConfig>& explore_pool = explore_pool_;  // aware mode: pre-throttle copy
  explore_pool.clear();  // member buffer: must start each step empty
  if (cfg_.thermal_aware && telemetry_.constrained) {
    // Exploration (below) draws from the *unthrottled* set: an over-budget
    // exploratory proposal is clamped by the real arbiter to the true power
    // boundary, which is the only way the controller can ever observe
    // boundary configurations its own model mis-ranks — the arbiter never
    // lets an over-budget config execute, so purely feasible exploration
    // would lock model errors in place.
    explore_pool.assign(candidates.begin(), candidates.end());
    const double anchor_pred_w = std::exp(decision_.score(executed).log_power);
    const double anchor_scale =
        (anchor_pred_w > 1e-9 && result.avg_power_w > 0.0) ? result.avg_power_w / anchor_pred_w
                                                           : 1.0;
    const auto candidate_power_w = [&](const soc::SocConfig& c) {
      return std::exp(decision_.score(c).log_power) * anchor_scale;
    };
    for (soc::SocConfig& c : candidates) {
      while (candidate_power_w(c) > telemetry_.budget_w) {
        if (!soc::throttle_step(c)) break;
      }
    }
  }

  // Each candidate is scored once; the near-tie pass reads the same scores.
  // oal-lint: allow(hot-path-alloc)
  scores_.resize(candidates.size());
  const std::size_t n = candidates.size();
  std::size_t best_i = n;  // n: no finite-cost candidate, keep `executed`
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    scores_[i] = decision_.score(candidates[i]);
    const double cost = scores_[i].log_time + scores_[i].log_power;
    if (cost < best_cost) {
      best_cost = cost;
      best_i = i;
    }
  }
  // Near-ties (within ~1% predicted energy) are resolved toward the lowest
  // predicted power: among equal-energy configurations the cooler one is
  // preferable, and deterministic tie-breaking stabilizes the supervision
  // labels the policy is trained on.
  soc::SocConfig best = best_i < n ? candidates[best_i] : executed;
  {
    double best_power =
        std::exp((best_i < n ? scores_[best_i] : decision_.score(executed)).log_power);
    for (std::size_t i = 0; i < n; ++i) {
      if (scores_[i].log_time + scores_[i].log_power > best_cost + 0.01) continue;
      const double p = std::exp(scores_[i].log_power);
      if (p < best_power) {
        best_power = p;
        best = candidates[i];
      }
    }
  }

  // Epsilon-greedy exploration over the candidate set: keeps the online
  // models excited outside the current operating point.  The supervision
  // label below is always the argmin, never the exploratory config.
  soc::SocConfig applied = best;
  last_was_exploratory_ = rng_.bernoulli(explore_);
  if (last_was_exploratory_) {
    const std::vector<soc::SocConfig>& pool = explore_pool.empty() ? candidates : explore_pool;
    applied = pool[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(pool.size()) - 1))];
  }
  explore_ = std::max(cfg_.explore_min, explore_ * cfg_.explore_decay);

  // 4. Buffer the supervision; a full buffer retrains the policy.
  std::copy(state.begin(), state.end(),
            buffer_states_.begin() + static_cast<std::ptrdiff_t>(buffer_fill_ * state.size()));
  buffer_labels_[buffer_fill_++] = best;
  if (buffer_fill_ >= cfg_.buffer_capacity) retrain_policy();
  return applied;
}
// oal-lint: hot-path-end

void OnlineIlController::retrain_policy() {
  const std::size_t dim = fx_.policy_dim();
  for (std::size_t i = 0; i < buffer_fill_; ++i) {
    const auto row = buffer_states_.begin() + static_cast<std::ptrdiff_t>(i * dim);
    agg_states_.emplace_back(row, row + static_cast<std::ptrdiff_t>(dim));
    agg_labels_.push_back(buffer_labels_[i]);
  }
  while (agg_states_.size() > cfg_.aggregate_capacity) {
    agg_states_.pop_front();
    agg_labels_.pop_front();
  }
  PolicyDataset ds;
  ds.states.assign(agg_states_.begin(), agg_states_.end());
  ds.labels.assign(agg_labels_.begin(), agg_labels_.end());
  policy_->train_incremental(ds, cfg_.update_epochs, rng_);
  ++policy_updates_;
  buffer_fill_ = 0;
}

OfflineIlController::OfflineIlController(const soc::ConfigSpace& space, const IlPolicy& policy)
    : policy_(&policy), fx_(space) {}

soc::SocConfig OfflineIlController::step(const soc::SnippetResult& result,
                                         const soc::SocConfig& executed) {
  fx_.policy_features_into(result.counters, executed, state_buf_);
  const soc::SocConfig c = policy_->decide(state_buf_, policy_scratch_);
  last_policy_ = c;
  return c;
}

}  // namespace oal::core
