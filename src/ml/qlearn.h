// Tabular Q-learning.
//
// Paper Section IV-A2 describes the two standard RL baselines for DRM:
// table-based Q-learning (impractical storage for large state spaces, slow
// convergence) and deep-Q learning.  This file implements the tabular
// variant; see dqn.h for the deep variant.  The DRM controllers in src/core
// use these as the RL baselines of Figs. 3 and 4.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace oal::ml {

struct QLearnConfig {
  double alpha = 0.1;          ///< learning rate
  double gamma = 0.6;          ///< discount factor
  double epsilon_init = 0.5;   ///< initial exploration rate
  double epsilon_min = 0.05;
  double epsilon_decay = 0.999;  ///< multiplicative per-step decay
  double optimistic_init = 0.0;  ///< initial Q value for unseen (s,a)
  std::uint64_t seed = 13;
};

/// Q-table over hashed discrete states and a fixed discrete action set.
class TabularQ {
 public:
  TabularQ(std::size_t num_actions, QLearnConfig cfg = {});

  /// Epsilon-greedy action selection (decays epsilon).
  std::size_t select_action(std::uint64_t state);
  /// Pure greedy action (no exploration, no decay).
  std::size_t greedy_action(std::uint64_t state) const;

  /// Q-learning update: Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
  void update(std::uint64_t state, std::size_t action, double reward, std::uint64_t next_state);

  /// Appends the complete learning state — epsilon, the exploration rng's
  /// mid-stream position (u64 words bit-preserved in doubles), and the
  /// Q-table sorted by state id (so the wire bytes are deterministic even
  /// though the hash map isn't ordered).  A restored learner's subsequent
  /// select_action/update sequence is bitwise identical to the original's.
  void export_state(std::vector<double>& out) const;
  /// Restores what export_state wrote; false (learner unchanged) on underrun,
  /// an action-count mismatch, a row count that is not a whole number fitting
  /// the blob, or a non-finite epsilon or Q-value.
  bool import_state(const std::vector<double>& in, std::size_t& pos);

  double epsilon() const { return epsilon_; }
  std::size_t num_states_visited() const { return table_.size(); }
  /// Bytes of Q-table storage (the paper's argument against tabular RL).
  std::size_t storage_bytes() const;

 private:
  const std::vector<double>& row(std::uint64_t state) const;
  std::vector<double>& row_mut(std::uint64_t state);

  std::size_t num_actions_;
  QLearnConfig cfg_;
  double epsilon_;
  common::Rng rng_;
  std::unordered_map<std::uint64_t, std::vector<double>> table_;
  std::vector<double> default_row_;
};

/// Hashes a vector of small discrete components into a state id.
std::uint64_t hash_state(const std::vector<int>& components);
/// Same FNV-1a hash over a caller-owned array — the allocation-free form the
/// controllers' per-step discretization uses (identical bytes mixed in the
/// identical order, so the ids match the vector overload's exactly).
std::uint64_t hash_state(const int* components, std::size_t n);

}  // namespace oal::ml
