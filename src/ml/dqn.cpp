#include "ml/dqn.h"

#include <algorithm>
#include <stdexcept>

namespace oal::ml {

namespace {
MlpConfig make_mlp_config(const DqnConfig& cfg, std::uint64_t seed_offset) {
  MlpConfig m;
  m.hidden = cfg.hidden;
  m.activation = Activation::kRelu;
  m.learning_rate = cfg.learning_rate;
  m.seed = cfg.seed + seed_offset;
  m.optimizer = cfg.optimizer;
  return m;
}
}  // namespace

Dqn::Dqn(std::size_t state_dim, std::size_t num_actions, DqnConfig cfg)
    : state_dim_(state_dim), num_actions_(num_actions), cfg_(cfg),
      online_(state_dim, num_actions, make_mlp_config(cfg, 0)),
      target_(state_dim, num_actions, make_mlp_config(cfg, 0)),
      epsilon_(cfg.epsilon_init), rng_(cfg.seed + 99) {
  if (num_actions == 0) throw std::invalid_argument("Dqn: need at least one action");
  target_.copy_params_from(online_);
  // Preallocate every replay slot (including its state vectors) up front so
  // steady-state observe() copy-assigns into existing storage — the decision
  // hot path never grows the heap after construction.
  replay_.resize(cfg_.replay_capacity);
  for (Transition& t : replay_) {
    t.state.resize(state_dim_);
    t.next_state.resize(state_dim_);
  }
}

std::size_t Dqn::select_action(const common::Vec& state) {
  std::size_t a;
  if (rng_.bernoulli(epsilon_)) {
    a = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(num_actions_) - 1));
  } else {
    a = greedy_action(state);
  }
  epsilon_ = std::max(cfg_.epsilon_min, epsilon_ * cfg_.epsilon_decay);
  return a;
}

std::size_t Dqn::greedy_action(const common::Vec& state) const {
  online_.forward_into(state, q_scratch_, fwd_scratch_);
  return static_cast<std::size_t>(
      std::distance(q_scratch_.begin(), std::max_element(q_scratch_.begin(), q_scratch_.end())));
}

void Dqn::observe(const common::Vec& state, std::size_t action, double reward,
                  const common::Vec& next_state) {
  if (state.size() != state_dim_ || next_state.size() != state_dim_)
    throw std::invalid_argument("Dqn::observe: state dim mismatch");
  if (action >= num_actions_) throw std::invalid_argument("Dqn::observe: bad action");
  if (cfg_.replay_capacity > 0) {
    // Ring insert, identical ordering to the retired deque's
    // push_back-then-pop_front: when full, the oldest slot is overwritten in
    // place and becomes the newest.
    const bool full = replay_count_ == cfg_.replay_capacity;
    Transition& slot =
        full ? replay_[replay_head_] : replay_[(replay_head_ + replay_count_) % cfg_.replay_capacity];
    slot.state = state;  // equal-size copy: no reallocation
    slot.action = action;
    slot.reward = reward;
    slot.next_state = next_state;
    if (full) {
      replay_head_ = (replay_head_ + 1) % cfg_.replay_capacity;
    } else {
      ++replay_count_;
    }
  }
  ++steps_;
  if (replay_count_ >= cfg_.min_replay) train_batch();
  if (steps_ % cfg_.target_sync_period == 0) target_.copy_params_from(online_);
}

void Dqn::train_batch() {
  // Sample the whole minibatch up front (same rng draw count and order as the
  // historical per-transition loop), then evaluate it through one batched
  // online/target forward pass each instead of per-transition vectors.
  const std::size_t bsz = cfg_.batch_size;
  std::vector<const Transition*> batch(bsz);
  for (std::size_t b = 0; b < bsz; ++b) {
    // Index i = i-th oldest, exactly as the deque indexed; replay_at maps it
    // onto the ring, so the sampled transition stream is bitwise unchanged.
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(replay_count_) - 1));
    batch[b] = &replay_at(i);
  }

  common::Mat states(bsz, state_dim_), next_states(bsz, state_dim_);
  for (std::size_t b = 0; b < bsz; ++b) {
    states.set_row(b, batch[b]->state);
    next_states.set_row(b, batch[b]->next_state);
  }

  const common::Mat next_q = target_.forward_batch(next_states);
  common::Mat targets = online_.forward_batch(states);
  common::Mat mask(bsz, num_actions_, 0.0);
  for (std::size_t b = 0; b < bsz; ++b) {
    double best_next = next_q(b, 0);
    for (std::size_t a = 1; a < num_actions_; ++a) best_next = std::max(best_next, next_q(b, a));
    targets(b, batch[b]->action) = batch[b]->reward + cfg_.gamma * best_next;
    mask(b, batch[b]->action) = 1.0;
  }
  online_.train_batch(states, targets, &mask);
}

}  // namespace oal::ml
