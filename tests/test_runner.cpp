// Tests for the DRM experiment runner and its derived metrics.
#include <gtest/gtest.h>

#include "core/governors.h"
#include "core/runner.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

TEST(Runner, RecordsOnePerSnippet) {
  soc::BigLittlePlatform plat;
  common::Rng rng(1);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("SHA"), 12, rng);
  DrmRunner runner(plat);
  StaticController ctl({2, 2, 8, 10});
  const auto res = runner.run(trace, ctl, {2, 2, 8, 10});
  ASSERT_EQ(res.records.size(), 12u);
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    EXPECT_EQ(res.records[i].index, i);
    EXPECT_GT(res.records[i].energy_j, 0.0);
    EXPECT_GT(res.records[i].oracle_energy_j, 0.0);
    EXPECT_EQ(res.records[i].applied, (soc::SocConfig{2, 2, 8, 10}));
  }
  // Start times strictly increase by execution time.
  for (std::size_t i = 1; i < res.records.size(); ++i)
    EXPECT_GT(res.records[i].start_time_s, res.records[i - 1].start_time_s);
}

TEST(Runner, EnergyRatioAtLeastOneForOracleConfigs) {
  // A controller that holds exactly the Oracle config of a constant workload
  // should achieve a ratio of ~1 (only measurement noise above).
  soc::BigLittlePlatform plat;
  common::Rng rng(2);
  auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("ADPCM"), 8, rng);
  // Make the trace exactly constant so one config is optimal throughout.
  for (auto& s : trace) s = trace[0];
  const soc::SocConfig best = oracle_config(plat, trace[0], Objective::kEnergy);
  DrmRunner runner(plat);
  StaticController ctl(best);
  const auto res = runner.run(trace, ctl, best);
  EXPECT_NEAR(res.energy_ratio(), 1.0, 0.05);
}

TEST(Runner, BadControllerHasRatioAboveOne) {
  soc::BigLittlePlatform plat;
  common::Rng rng(3);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Dijkstra"), 8, rng);
  DrmRunner runner(plat);
  PerformanceGovernor gov(plat.space());
  const auto res = runner.run(trace, gov, {4, 4, 12, 18});
  EXPECT_GT(res.energy_ratio(), 1.2);
}

TEST(Runner, PerAppRatios) {
  soc::BigLittlePlatform plat;
  common::Rng rng(4);
  const std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("SHA"),
                                             workloads::CpuBenchmarks::by_name("Kmeans")};
  std::vector<soc::SnippetDescriptor> trace;
  for (const auto& a : apps) {
    const auto t = workloads::CpuBenchmarks::trace(a, 6, rng);
    trace.insert(trace.end(), t.begin(), t.end());
  }
  DrmRunner runner(plat);
  StaticController ctl({4, 4, 8, 10});
  const auto res = runner.run(trace, ctl, {4, 4, 8, 10});
  const double r_sha = res.energy_ratio_for_app(workloads::CpuBenchmarks::by_name("SHA").app_id);
  const double r_km = res.energy_ratio_for_app(workloads::CpuBenchmarks::by_name("Kmeans").app_id);
  EXPECT_GT(r_sha, 1.0);
  EXPECT_GT(r_km, 1.0);
  EXPECT_THROW(res.energy_ratio_for_app(999), std::invalid_argument);
}

TEST(Runner, AccuracyMetrics) {
  soc::BigLittlePlatform plat;
  common::Rng rng(5);
  auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 6, rng);
  for (auto& s : trace) s = trace[0];
  const soc::SocConfig best = oracle_config(plat, trace[0], Objective::kEnergy);
  DrmRunner runner(plat);
  StaticController good(best);
  const auto res = runner.run(trace, good, best);
  EXPECT_DOUBLE_EQ(res.big_freq_accuracy(0, res.records.size()), 1.0);

  // A config whose big frequency is 2 steps away fails at tolerance 1 but
  // passes at tolerance 2.
  soc::SocConfig off = best;
  off.big_freq_idx = best.big_freq_idx >= 2 ? best.big_freq_idx - 2 : best.big_freq_idx + 2;
  StaticController shifted(off);
  const auto res2 = runner.run(trace, shifted, off);
  EXPECT_DOUBLE_EQ(res2.big_freq_accuracy(0, res2.records.size(), 1), 0.0);
  EXPECT_DOUBLE_EQ(res2.big_freq_accuracy(0, res2.records.size(), 2), 1.0);
  EXPECT_THROW(res2.big_freq_accuracy(3, 2), std::invalid_argument);
}

TEST(Runner, OracleSkippedWhenDisabled) {
  soc::BigLittlePlatform plat;
  common::Rng rng(6);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("SHA"), 4, rng);
  RunnerOptions opts;
  opts.compute_oracle = false;
  DrmRunner runner(plat, opts);
  StaticController ctl({1, 0, 0, 0});
  const auto res = runner.run(trace, ctl, {1, 0, 0, 0});
  EXPECT_THROW(res.energy_ratio(), std::logic_error);
  EXPECT_GT(res.total_energy_j(), 0.0);
  EXPECT_GT(res.total_time_s(), 0.0);
}

}  // namespace
}  // namespace oal::core
