// Deep Q-network (MLP value function + experience replay + target network).
//
// This is the "deep Q-learning based RL" baseline the paper contrasts with
// online imitation learning: it needs a reward function and many environment
// interactions to converge, which is exactly the drawback Figs. 3-4
// illustrate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "ml/mlp.h"

namespace oal::ml {

struct DqnConfig {
  std::vector<std::size_t> hidden{32, 32};
  double learning_rate = 1e-3;
  double gamma = 0.6;
  double epsilon_init = 0.5;
  double epsilon_min = 0.05;
  double epsilon_decay = 0.999;
  std::size_t replay_capacity = 2048;
  std::size_t batch_size = 32;
  std::size_t target_sync_period = 64;  ///< steps between target-network syncs
  std::size_t min_replay = 64;          ///< do not train before this many samples
  std::uint64_t seed = 17;
  /// Update rule for the online network (ml/optimizer.h).
  OptimizerConfig optimizer{};
};

class Dqn {
 public:
  Dqn(std::size_t state_dim, std::size_t num_actions, DqnConfig cfg = {});

  /// Epsilon-greedy action (decays epsilon).
  std::size_t select_action(const common::Vec& state);
  std::size_t greedy_action(const common::Vec& state) const;

  /// Stores a transition and runs one mini-batch update if enough replay.
  void observe(const common::Vec& state, std::size_t action, double reward,
               const common::Vec& next_state);

  double epsilon() const { return epsilon_; }
  std::size_t num_actions() const { return num_actions_; }
  std::size_t replay_size() const { return replay_count_; }

  /// One stored transition.  The replay buffer is a preallocated ring:
  /// every slot's state vectors are sized at construction, so steady-state
  /// observe() copies into existing storage and never touches the heap.
  struct Transition {
    common::Vec state;
    std::size_t action = 0;
    double reward = 0.0;
    common::Vec next_state;
  };
  /// i-th oldest stored transition (i < replay_size()) — the same indexing
  /// the sampling in train_batch uses; exposed so tests can assert the ring
  /// reproduces deque eviction order exactly.
  const Transition& replay_at(std::size_t i) const {
    return replay_[(replay_head_ + i) % replay_.size()];
  }

 private:
  void train_batch();

  std::size_t state_dim_;
  std::size_t num_actions_;
  DqnConfig cfg_;
  Mlp online_;
  Mlp target_;
  double epsilon_;
  common::Rng rng_;
  /// Replay ring: replay_capacity preallocated slots; slot (head + i) % cap
  /// holds the i-th oldest transition, matching the retired deque's order
  /// (and therefore its sampling stream) bit for bit.
  std::vector<Transition> replay_;
  std::size_t replay_head_ = 0;
  std::size_t replay_count_ = 0;
  /// Inference scratch for the per-decide greedy path; mutable because
  /// greedy_action is logically const.  A Dqn is single-owner (one
  /// controller), never shared across threads.
  mutable common::Vec q_scratch_;
  mutable Mlp::InferScratch fwd_scratch_;
  std::size_t steps_ = 0;
};

}  // namespace oal::ml
