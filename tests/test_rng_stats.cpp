// Unit tests for deterministic RNG and statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/decision_timer.h"
#include "fleet/aggregator.h"

namespace oal::common {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproxHalf) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 40000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng r(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 30000; ++i) s.add(r.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng r(29);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += r.categorical(w) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / 20000.0, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng r(31);
  EXPECT_THROW(r.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ForkIndependence) {
  Rng a(37);
  Rng b = a.fork();
  // Streams should not be identical.
  int same = 0;
  for (int i = 0; i < 32; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Stats, MeanVarianceStd) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_NEAR(stddev(xs), 1.1180339887, 1e-9);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 25), 2.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Single element: every percentile is that element (no interpolation
  // partner, and p=100 must not index past the end).
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
  // p = 0 / 100 on unsorted input hit the exact extremes.
  EXPECT_DOUBLE_EQ(percentile({9, -3, 4}, 0), -3.0);
  EXPECT_DOUBLE_EQ(percentile({9, -3, 4}, 100), 9.0);
  // Out-of-range p is rejected, not clamped.
  EXPECT_THROW(percentile({1, 2}, -0.001), std::invalid_argument);
  EXPECT_THROW(percentile({1, 2}, 100.001), std::invalid_argument);
}

TEST(Stats, PercentileRuleIsPinnedAcrossAllSurfaces) {
  // One percentile rule repo-wide: common::stats::percentile, the
  // DecisionTimer latency reservoir and the fleet StreamingMetric must agree
  // bit-for-bit on the same samples.  The shared primitive is
  // percentile_sorted (linear interpolation at idx = p/100 * (n-1)); this
  // test pins every surface to it so none can drift back to nearest-rank.
  const std::vector<double> samples{12.0, 3.0, 3.0, 47.0, 8.0, 3.0, 21.0, 8.0, 30.0};
  for (const double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    const double expect = percentile(samples, p);

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(percentile_sorted(sorted.data(), sorted.size(), p), expect);

    oal::fleet::StreamingMetric metric(64);
    for (const double x : samples) metric.add(x);
    EXPECT_EQ(metric.percentile(p), expect);
  }

  // DecisionTimer reports exactly p50/p99 — same rule, fed via record().
  oal::core::DecisionTimer timer;
  for (const double x : samples) timer.record(x);
  const oal::core::DecisionLatencyStats s = timer.stats();
  EXPECT_EQ(s.p50_ns, percentile(samples, 50.0));
  EXPECT_EQ(s.p99_ns, percentile(samples, 99.0));
  EXPECT_EQ(s.max_ns, 47.0);

  // Interpolation (not nearest-rank): even n has no middle element, the
  // median is the average of the two central order statistics; ties are
  // plateaus the interpolation walks through.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 10.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0, 5.0, 5.0, 9.0}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 75.0), 7.5);

  // Single sample: every percentile is that sample, on every surface.
  oal::fleet::StreamingMetric one(8);
  one.add(4.25);
  EXPECT_EQ(one.percentile(0.0), 4.25);
  EXPECT_EQ(one.percentile(99.0), 4.25);
  // Empty: throws (stats/metric) or zeroed summary (DecisionTimer, whose
  // stats() must be safe to call on an unused timer at run end).
  oal::fleet::StreamingMetric empty(8);
  EXPECT_THROW(empty.percentile(50.0), std::invalid_argument);
  const oal::core::DecisionLatencyStats none = oal::core::DecisionTimer{}.stats();
  EXPECT_EQ(none.decisions, 0u);
  EXPECT_EQ(none.p50_ns, 0.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Stats, MapeSkipsZeroActuals) {
  const double m = mape({0.0, 2.0}, {5.0, 2.2});
  EXPECT_NEAR(m, 10.0, 1e-9);
}

TEST(Stats, RmseZeroForPerfect) {
  EXPECT_DOUBLE_EQ(rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_NEAR(rmse({0, 0}, {3, 4}), std::sqrt(12.5), 1e-12);
}

TEST(Stats, CorrelationSigns) {
  EXPECT_NEAR(correlation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(correlation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(RunningStats, MatchesBatch) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), mean(xs));
  EXPECT_NEAR(s.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

}  // namespace
}  // namespace oal::common
