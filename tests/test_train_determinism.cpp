// Bitwise reproducibility of minibatch training across executors.
//
// The training contract (ml/mlp.h): gradient shards have a fixed geometry —
// shard s always covers rows [s*8, s*8+8) of the minibatch — and are reduced
// in ascending shard order, so a ThreadPool only changes who computes a
// shard, never the arithmetic.  Serial, 1-thread, and N-thread training must
// therefore produce bit-identical parameters.  Every comparison is on the
// raw bits: a ULP-tolerant double comparison would forgive up to 4 ULP.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/mlp.h"

namespace oal::ml {
namespace {

using common::Mat;
using common::Rng;
using common::Vec;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

Mat random_batch(std::size_t rows, std::size_t cols, Rng& rng) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.5, 1.5);
  return m;
}

/// Trains one Mlp on a fixed deterministic curriculum and probes it.
Vec train_and_probe_mlp(common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {12, 8};
  cfg.learning_rate = 3e-3;
  cfg.l2 = 1e-5;
  cfg.seed = 7;
  cfg.pool = pool;
  Mlp net(4, 2, cfg);
  Rng data_rng(11);
  for (int step = 0; step < 12; ++step) {
    // 20 rows = 3 shards (8 + 8 + 4): exercises the partial tail shard.
    const Mat x = random_batch(20, 4, data_rng);
    Mat t(20, 2);
    for (std::size_t r = 0; r < t.rows(); ++r) {
      t(r, 0) = std::sin(x(r, 0)) + x(r, 1);
      t(r, 1) = x(r, 2) * x(r, 3);
    }
    net.train_batch(x, t);
  }
  Rng probe_rng(13);
  const Mat probes = random_batch(5, 4, probe_rng);
  const Mat y = net.forward_batch(probes);
  Vec flat;
  for (std::size_t r = 0; r < y.rows(); ++r)
    for (std::size_t c = 0; c < y.cols(); ++c) flat.push_back(y(r, c));
  return flat;
}

/// Trains one MultiHeadClassifier over shuffled epochs and returns every
/// parameter it ended with.
Vec train_and_probe_multihead(common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {10};
  cfg.learning_rate = 1e-2;
  cfg.seed = 17;
  cfg.pool = pool;
  MultiHeadClassifier net(3, {2, 4}, cfg);
  Rng data_rng(19);
  std::vector<Vec> xs;
  std::vector<std::vector<std::size_t>> labels;
  for (int i = 0; i < 64; ++i) {
    const double a = data_rng.uniform(-1, 1), b = data_rng.uniform(-1, 1),
                 c = data_rng.uniform(-1, 1);
    xs.push_back({a, b, c});
    labels.push_back({a > 0 ? 1u : 0u, (b > 0 ? 1u : 0u) + (c > 0 ? 2u : 0u)});
  }
  Rng train_rng(23);  // same seed everywhere: identical shuffles by contract
  net.train(xs, labels, 4, 24, train_rng);
  Vec params;
  net.export_params(params);
  return params;
}

TEST(TrainDeterminism, MlpBitwiseIdenticalAcrossThreadCounts) {
  const Vec serial = train_and_probe_mlp(nullptr);
  common::ThreadPool pool1(1);
  const Vec one = train_and_probe_mlp(&pool1);
  common::ThreadPool pool4(4);
  const Vec four = train_and_probe_mlp(&pool4);
  ASSERT_EQ(serial.size(), one.size());
  ASSERT_EQ(serial.size(), four.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(bits(serial[i]), bits(one[i])) << "serial vs 1-thread, output " << i;
    EXPECT_EQ(bits(serial[i]), bits(four[i])) << "serial vs 4-thread, output " << i;
  }
}

TEST(TrainDeterminism, MultiHeadBitwiseIdenticalAcrossThreadCounts) {
  const Vec serial = train_and_probe_multihead(nullptr);
  common::ThreadPool pool1(1);
  const Vec one = train_and_probe_multihead(&pool1);
  common::ThreadPool pool4(4);
  const Vec four = train_and_probe_multihead(&pool4);
  ASSERT_EQ(serial.size(), one.size());
  ASSERT_EQ(serial.size(), four.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(bits(serial[i]), bits(one[i])) << "serial vs 1-thread, output " << i;
    EXPECT_EQ(bits(serial[i]), bits(four[i])) << "serial vs 4-thread, output " << i;
  }
}

TEST(TrainDeterminism, TrainBatchLossIdenticalAcrossExecutors) {
  MlpConfig cfg;
  cfg.hidden = {6};
  cfg.seed = 29;
  Rng data_rng(31);
  const Mat x = random_batch(17, 3, data_rng);  // 3 shards, ragged tail
  Mat t(17, 1);
  for (std::size_t r = 0; r < t.rows(); ++r) t(r, 0) = x(r, 0) - x(r, 1) * x(r, 2);

  Mlp serial_net(3, 1, cfg);
  const double serial_loss = serial_net.train_batch(x, t);
  common::ThreadPool pool(3);
  cfg.pool = &pool;
  Mlp pooled_net(3, 1, cfg);
  const double pooled_loss = pooled_net.train_batch(x, t);
  EXPECT_EQ(bits(serial_loss), bits(pooled_loss));
}

}  // namespace
}  // namespace oal::ml
