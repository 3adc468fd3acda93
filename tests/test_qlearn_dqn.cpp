// Tests for tabular Q-learning and DQN on small synthetic MDPs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/dqn.h"
#include "ml/qlearn.h"

namespace oal::ml {
namespace {

using common::Vec;

TEST(HashState, DistinctForDifferentComponents) {
  EXPECT_NE(hash_state({1, 2, 3}), hash_state({1, 2, 4}));
  EXPECT_NE(hash_state({0}), hash_state({0, 0}));
  EXPECT_EQ(hash_state({5, -1}), hash_state({5, -1}));
}

TEST(TabularQ, LearnsTwoStateChain) {
  // Two states; action 1 in state 0 yields reward 1 and stays, action 0
  // yields 0.  Greedy policy must prefer action 1.
  QLearnConfig cfg;
  cfg.alpha = 0.5;
  cfg.epsilon_init = 0.5;
  cfg.epsilon_min = 0.1;
  TabularQ q(2, cfg);
  const std::uint64_t s0 = hash_state({0});
  for (int i = 0; i < 300; ++i) {
    const std::size_t a = q.select_action(s0);
    q.update(s0, a, a == 1 ? 1.0 : 0.0, s0);
  }
  EXPECT_EQ(q.greedy_action(s0), 1u);
}

TEST(TabularQ, PropagatesValueThroughChain) {
  // s0 -a1-> s1 -a1-> goal(r=1).  Q(s0, a1) must exceed 0.5 via
  // bootstrapping (it approaches gamma * 1 = 0.9) even though the immediate
  // reward is zero.  s0 -a0-> goal pays 0.5 and goal's row is never updated,
  // so Q(s0, a0) converges to 0.5 and the greedy action is a1 only when
  // Q(s0, a1) > 0.5.
  QLearnConfig cfg;
  cfg.alpha = 0.3;
  cfg.gamma = 0.9;
  TabularQ q(2, cfg);
  const std::uint64_t s0 = hash_state({0}), s1 = hash_state({1}), g = hash_state({2});
  for (int i = 0; i < 500; ++i) {
    q.update(s0, 0, 0.5, g);
    q.update(s0, 1, 0.0, s1);
    q.update(s1, 1, 1.0, g);
  }
  EXPECT_EQ(q.greedy_action(s0), 1u);
}

TEST(TabularQ, EpsilonDecays) {
  QLearnConfig cfg;
  cfg.epsilon_init = 0.5;
  cfg.epsilon_min = 0.01;
  cfg.epsilon_decay = 0.9;
  TabularQ q(3, cfg);
  const double e0 = q.epsilon();
  for (int i = 0; i < 100; ++i) q.select_action(hash_state({i}));
  EXPECT_LT(q.epsilon(), e0);
  EXPECT_GE(q.epsilon(), cfg.epsilon_min);
}

TEST(TabularQ, StorageGrowsWithVisitedStates) {
  TabularQ q(4);
  EXPECT_EQ(q.num_states_visited(), 0u);
  for (int i = 0; i < 50; ++i) q.update(hash_state({i}), 0, 0.0, hash_state({i + 1}));
  EXPECT_EQ(q.num_states_visited(), 50u);
  EXPECT_EQ(q.storage_bytes(), 50u * (8u + 4u * 8u));
}

TEST(TabularQ, InvalidUsageThrows) {
  EXPECT_THROW(TabularQ(0), std::invalid_argument);
  TabularQ q(2);
  EXPECT_THROW(q.update(0, 5, 0.0, 1), std::invalid_argument);
}

TEST(Dqn, LearnsStatelessBandit) {
  // Single continuous state, 3 actions, action 2 always best.
  DqnConfig cfg;
  cfg.hidden = {16};
  cfg.min_replay = 16;
  cfg.batch_size = 16;
  cfg.epsilon_decay = 0.99;
  cfg.seed = 21;
  Dqn dqn(2, 3, cfg);
  const Vec s{0.5, -0.5};
  for (int i = 0; i < 400; ++i) {
    const std::size_t a = dqn.select_action(s);
    const double r = a == 2 ? 1.0 : a == 1 ? 0.2 : 0.0;
    dqn.observe(s, a, r, s);
  }
  EXPECT_EQ(dqn.greedy_action(s), 2u);
}

TEST(Dqn, StateDependentPolicy) {
  // Best action depends on the sign of the state's first component.
  DqnConfig cfg;
  cfg.hidden = {16};
  cfg.min_replay = 32;
  cfg.batch_size = 16;
  cfg.gamma = 0.0;  // bandit
  cfg.epsilon_min = 0.2;
  cfg.seed = 22;
  Dqn dqn(1, 2, cfg);
  common::Rng rng(23);
  for (int i = 0; i < 1200; ++i) {
    const Vec s{rng.uniform(-1, 1)};
    const std::size_t a = dqn.select_action(s);
    const double r = (s[0] > 0) == (a == 1) ? 1.0 : -1.0;
    dqn.observe(s, a, r, s);
  }
  EXPECT_EQ(dqn.greedy_action({0.8}), 1u);
  EXPECT_EQ(dqn.greedy_action({-0.8}), 0u);
}

TEST(Dqn, ReplayBounded) {
  DqnConfig cfg;
  cfg.replay_capacity = 64;
  cfg.min_replay = 1000000;  // never train (keeps the test fast)
  Dqn dqn(1, 2, cfg);
  for (int i = 0; i < 200; ++i) dqn.observe({0.0}, 0, 0.0, {0.0});
  EXPECT_LE(dqn.replay_size(), 64u);
}

TEST(Dqn, InvalidUsageThrows) {
  DqnConfig cfg;
  Dqn dqn(2, 2, cfg);
  EXPECT_THROW(dqn.observe({1.0}, 0, 0.0, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(dqn.observe({1.0, 2.0}, 7, 0.0, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace oal::ml
