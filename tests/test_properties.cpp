// Parameterized property tests: invariants that must hold across sweeps of
// workloads, configurations and model dimensions — not just hand-picked
// examples.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "ml/rls.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal {
namespace {

// ---- Platform invariants over a workload-descriptor grid --------------------

struct WorkloadPoint {
  double cpi_l;
  double cpi_b;
  double mpki;
  double pf;
  int threads;
};

class PlatformProperties : public ::testing::TestWithParam<WorkloadPoint> {
 protected:
  soc::SnippetDescriptor make_snippet() const {
    const WorkloadPoint& p = GetParam();
    soc::SnippetDescriptor s;
    s.instructions = 20e6;
    s.base_cpi_little = p.cpi_l;
    s.base_cpi_big = p.cpi_b;
    s.l2_mpki = p.mpki;
    s.branch_mpki = 2.0;
    s.parallel_fraction = p.pf;
    s.max_threads = p.threads;
    return s;
  }
  soc::BigLittlePlatform plat_;
};

TEST_P(PlatformProperties, EnergyTimePowerConsistentEverywhere) {
  const auto s = make_snippet();
  for (std::size_t i = 0; i < plat_.space().size(); i += 331) {
    const auto r = plat_.execute_ideal(s, plat_.space().config_at(i));
    EXPECT_GT(r.exec_time_s, 0.0);
    EXPECT_GT(r.avg_power_w, 0.0);
    EXPECT_NEAR(r.energy_j, r.avg_power_w * r.exec_time_s, 1e-12);
    EXPECT_GE(r.counters.little_cluster_utilization, 0.0);
    EXPECT_LE(r.counters.big_cluster_utilization, 1.0);
    EXPECT_GE(r.counters.avg_runnable_threads, 1.0);
  }
}

TEST_P(PlatformProperties, FrequencyMonotoneInTimeAtFixedCores) {
  const auto s = make_snippet();
  // With cores fixed, raising the serving cluster's frequency can never slow
  // execution down.
  for (int nb : {0, 2}) {
    double prev_t = 1e300;
    for (int fb = 0; fb < 19; fb += 3) {
      const soc::SocConfig c{2, nb, 6, fb};
      const double t = plat_.execute_ideal(s, c).exec_time_s;
      if (nb > 0) {
        EXPECT_LE(t, prev_t * (1.0 + 1e-9));
      }
      prev_t = t;
    }
  }
  double prev_t = 1e300;
  for (int fl = 0; fl < 13; fl += 2) {
    const soc::SocConfig c{2, 0, fl, 0};
    const double t = plat_.execute_ideal(s, c).exec_time_s;
    EXPECT_LE(t, prev_t * (1.0 + 1e-9));
    prev_t = t;
  }
}

TEST_P(PlatformProperties, MoreCoresNeverSlower) {
  const auto s = make_snippet();
  for (int nl = 1; nl < 4; ++nl) {
    const double t_less = plat_.execute_ideal(s, {nl, 1, 8, 10}).exec_time_s;
    const double t_more = plat_.execute_ideal(s, {nl + 1, 1, 8, 10}).exec_time_s;
    EXPECT_LE(t_more, t_less * (1.0 + 1e-9));
  }
}

TEST_P(PlatformProperties, BigFrequencyInertWhenGated) {
  const auto s = make_snippet();
  const auto a = plat_.execute_ideal(s, {2, 0, 6, 2});
  const auto b = plat_.execute_ideal(s, {2, 0, 6, 17});
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST_P(PlatformProperties, OracleBeatsEveryProbe) {
  const auto s = make_snippet();
  const double best = plat_.execute_ideal(s, plat_.best_energy_config(s)).energy_j;
  common::Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const auto c = plat_.space().config_at(
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(plat_.space().size()) - 1)));
    EXPECT_LE(best, plat_.execute_ideal(s, c).energy_j + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadGrid, PlatformProperties,
    ::testing::Values(WorkloadPoint{1.3, 0.7, 0.2, 0.02, 1},   // ILP-rich serial
                      WorkloadPoint{1.8, 1.1, 2.5, 0.05, 1},   // branchy
                      WorkloadPoint{2.1, 1.1, 9.0, 0.05, 1},   // memory-bound serial
                      WorkloadPoint{1.5, 0.8, 0.8, 0.92, 2},   // parallel 2T
                      WorkloadPoint{1.5, 0.8, 0.9, 0.95, 4},   // parallel 4T
                      WorkloadPoint{2.3, 1.5, 14.0, 0.5, 4},   // extreme memory + mixed
                      WorkloadPoint{1.2, 0.6, 0.05, 0.0, 1})); // pure compute

// ---- RLS recovery across dimensions and forgetting factors ------------------

class RlsRecovery : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RlsRecovery, RecoversRandomLinearMap) {
  const auto [dim, lambda] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(dim * 1000 + static_cast<int>(lambda * 100)));
  common::Vec truth(static_cast<std::size_t>(dim));
  for (double& v : truth) v = rng.uniform(-3.0, 3.0);
  ml::RecursiveLeastSquares rls(static_cast<std::size_t>(dim), {lambda, 1e3, 0.0});
  for (int i = 0; i < 200 * dim; ++i) {
    common::Vec x(static_cast<std::size_t>(dim));
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    rls.update(x, common::dot(truth, x) + rng.normal(0.0, 0.001));
  }
  common::Vec probe(static_cast<std::size_t>(dim));
  for (double& v : probe) v = rng.uniform(-1.0, 1.0);
  EXPECT_NEAR(rls.predict(probe), common::dot(truth, probe), 0.05);
}

INSTANTIATE_TEST_SUITE_P(DimLambdaGrid, RlsRecovery,
                         ::testing::Combine(::testing::Values(2, 5, 10, 20),
                                            ::testing::Values(0.97, 0.99, 1.0)));

// ---- Workload generator invariants over all 16 apps -------------------------

class AppTraceProperties : public ::testing::TestWithParam<int> {};

TEST_P(AppTraceProperties, DescriptorsStayPhysical) {
  const auto& app = workloads::CpuBenchmarks::all()[static_cast<std::size_t>(GetParam())];
  common::Rng rng(7);
  for (const auto& s : workloads::CpuBenchmarks::trace(app, 120, rng)) {
    EXPECT_GT(s.base_cpi_little, 0.3);
    EXPECT_LT(s.base_cpi_little, 10.0);
    EXPECT_GT(s.base_cpi_big, 0.2);
    EXPECT_LE(s.base_cpi_big, s.base_cpi_little);  // OoO never slower per instr
    EXPECT_GE(s.l2_mpki, 0.0);
    EXPECT_LT(s.l2_mpki, 60.0);
    EXPECT_GE(s.parallel_fraction, 0.0);
    EXPECT_LE(s.parallel_fraction, 0.98);
    EXPECT_GE(s.max_threads, 1);
    EXPECT_EQ(s.app_id, app.app_id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSixteen, AppTraceProperties, ::testing::Range(0, 16));

}  // namespace
}  // namespace oal
