// Tests for Oracle construction, label encoding, dataset collection and the
// offline IL policy.
#include <gtest/gtest.h>

#include "core/il_policy.h"
#include "core/oracle.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

TEST(LabelEncoding, RoundTripsAllKnobs) {
  soc::ConfigSpace space;
  for (std::size_t i = 0; i < space.size(); i += 101) {
    const soc::SocConfig c = space.config_at(i);
    EXPECT_EQ(config_of(labels_of(c)), c);
  }
  EXPECT_THROW(config_of({1, 2, 3}), std::invalid_argument);
}

TEST(Oracle, MatchesExhaustivePlatformSearch) {
  soc::BigLittlePlatform plat;
  common::Rng rng(1);
  const auto& app = workloads::CpuBenchmarks::by_name("SHA");
  const auto trace = workloads::CpuBenchmarks::trace(app, 3, rng);
  const soc::SocConfig via_oracle = oracle_config(plat, trace[0], Objective::kEnergy);
  const soc::SocConfig via_platform = plat.best_energy_config(trace[0]);
  EXPECT_EQ(via_oracle, via_platform);
}

TEST(OracleCache, MatchesUncachedAndCountsHits) {
  soc::BigLittlePlatform plat;
  common::Rng rng(3);
  const auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 3,
                                                     rng);
  OracleCache cache;
  for (const auto& s : trace) {
    EXPECT_EQ(cache.config(plat, s, Objective::kEnergy), oracle_config(plat, s, Objective::kEnergy));
    // cost() reuses the entry config() just created: one miss per snippet.
    EXPECT_EQ(cache.cost(plat, s, Objective::kEnergy), oracle_cost(plat, s, Objective::kEnergy));
  }
  EXPECT_EQ(cache.size(), trace.size());
  EXPECT_EQ(cache.hits(), trace.size());
  // Second pass: all hits, identical values.
  const std::size_t lookups_before = cache.lookups();
  for (const auto& s : trace)
    EXPECT_EQ(cache.config(plat, s, Objective::kEnergy), oracle_config(plat, s, Objective::kEnergy));
  EXPECT_EQ(cache.size(), trace.size());
  EXPECT_EQ(cache.hits(), 2 * trace.size());
  EXPECT_EQ(cache.lookups(), lookups_before + trace.size());
}

TEST(OracleCache, KeyedByObjective) {
  // Same snippet under different objectives must not collide.
  soc::BigLittlePlatform plat;
  common::Rng rng(4);
  const auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Kmeans"),
                                                     1, rng);
  OracleCache cache;
  const auto c_e = cache.config(plat, trace[0], Objective::kEnergy);
  const auto c_p = cache.config(plat, trace[0], Objective::kPerfPerWatt);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(c_e, oracle_config(plat, trace[0], Objective::kEnergy));
  EXPECT_EQ(c_p, oracle_config(plat, trace[0], Objective::kPerfPerWatt));
}

TEST(OracleCache, KeyedByPlatformParams) {
  // One cache may serve differently-parameterized platforms: entries must
  // not alias across them.
  soc::BigLittlePlatform plat_a;
  soc::PlatformParams heavy;
  heavy.ceff_big_nf *= 3.0;  // big cores much more expensive -> different Oracle
  soc::BigLittlePlatform plat_b(heavy);
  common::Rng rng(6);
  const auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 1,
                                                     rng);
  OracleCache cache;
  const auto c_a = cache.config(plat_a, trace[0], Objective::kEnergy);
  const auto c_b = cache.config(plat_b, trace[0], Objective::kEnergy);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(c_a, oracle_config(plat_a, trace[0], Objective::kEnergy));
  EXPECT_EQ(c_b, oracle_config(plat_b, trace[0], Objective::kEnergy));
}

TEST(OracleCache, StoreKeyFingerprintIsPinned) {
  // The fingerprint addresses every stored Oracle entry, so its value must
  // never move: these are the values the key had before the platform
  // computed it once at construction.  The fast corner is the fleet's
  // leaky-silicon corner at nominal voltage (fleet/device_population.cpp).
  soc::PlatformParams fast;
  fast.leak_little_w_per_v *= 1.38;
  fast.leak_big_w_per_v *= 1.38;
  fast.ceff_little_nf *= 0.94;
  fast.ceff_big_nf *= 0.94;
  soc::PlatformParams other;  // overwritten by copy assignment below
  other.ceff_big_nf *= 3.0;
  EXPECT_EQ(soc::platform_fingerprint(soc::PlatformParams{}), 0xf4b3a9222f760538ULL);
  EXPECT_EQ(soc::platform_fingerprint(fast), 0xf9e56fd71e5dac77ULL);

  common::Rng rng(8);
  const auto snippet =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("SHA"), 1, rng)[0];
  for (const soc::PlatformParams& params : {soc::PlatformParams{}, fast}) {
    const std::uint64_t want = soc::platform_fingerprint(params);
    const soc::BigLittlePlatform constructed(params);
    const soc::BigLittlePlatform copied(constructed);
    soc::BigLittlePlatform assigned(other);
    assigned = constructed;
    const soc::BigLittlePlatform* const platforms[] = {&constructed, &copied, &assigned};
    for (const soc::BigLittlePlatform* plat : platforms) {
      EXPECT_EQ(plat->fingerprint(), want);
      EXPECT_EQ(OracleCache::key_of(*plat, snippet, Objective::kEnergy).platform_fingerprint,
                want);
    }
  }
}

TEST(OracleCache, IgnoresAppIdBookkeeping) {
  // app_id is bookkeeping, not physics: two descriptors differing only in
  // app_id share one entry.
  soc::BigLittlePlatform plat;
  common::Rng rng(5);
  auto trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("SHA"), 1, rng);
  OracleCache cache;
  (void)cache.config(plat, trace[0], Objective::kEnergy);
  trace[0].app_id += 17;
  (void)cache.config(plat, trace[0], Objective::kEnergy);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Oracle, ObjectivesDiffer) {
  // EDP weighs delay more than energy: its optimum must be at least as fast.
  soc::BigLittlePlatform plat;
  common::Rng rng(2);
  const auto& app = workloads::CpuBenchmarks::by_name("Kmeans");
  const auto trace = workloads::CpuBenchmarks::trace(app, 2, rng);
  const auto c_e = oracle_config(plat, trace[0], Objective::kEnergy);
  const auto c_edp = oracle_config(plat, trace[0], Objective::kEdp);
  const double t_e = plat.execute_ideal(trace[0], c_e).exec_time_s;
  const double t_edp = plat.execute_ideal(trace[0], c_edp).exec_time_s;
  EXPECT_LE(t_edp, t_e + 1e-12);
}

TEST(Oracle, CostIsMinimal) {
  soc::BigLittlePlatform plat;
  common::Rng rng(3);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 2, rng);
  const double c = oracle_cost(plat, trace[0], Objective::kEnergy);
  for (std::size_t i = 0; i < plat.space().size(); i += 199) {
    const auto r = plat.execute_ideal(trace[0], plat.space().config_at(i));
    EXPECT_LE(c, objective_cost(r, Objective::kEnergy) + 1e-12);
  }
}

TEST(ObjectiveCost, PerfPerWattIsNegatedThroughput) {
  soc::SnippetResult r;
  r.energy_j = 2.0;
  r.counters.instructions_retired = 10.0;
  EXPECT_DOUBLE_EQ(objective_cost(r, Objective::kPerfPerWatt), -5.0);
  r.energy_j = 0.0;
  EXPECT_THROW(objective_cost(r, Objective::kPerfPerWatt), std::invalid_argument);
}

class OfflineIlFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(7);
    const auto apps = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
    data_ = collect_offline_data(plat_, apps, Objective::kEnergy, 15, 4, rng);
  }
  soc::BigLittlePlatform plat_;
  OfflineData data_;
};

TEST_F(OfflineIlFixture, DatasetShape) {
  // 10 apps x 15 snippets x (1 oracle + 4 random) observations.
  EXPECT_EQ(data_.policy.states.size(), 10u * 15u * 5u);
  EXPECT_EQ(data_.policy.states.size(), data_.policy.labels.size());
  EXPECT_EQ(data_.model_samples.size(), data_.policy.states.size());
  for (const auto& s : data_.policy.states) EXPECT_EQ(s.size(), 12u);
  for (const auto& l : data_.policy.labels) EXPECT_TRUE(plat_.space().valid(l));
}

TEST_F(OfflineIlFixture, DatasetBlobRoundTripsBitwise) {
  const std::vector<double> blob = data_.export_artifact();
  OfflineData back;
  ASSERT_TRUE(back.import_artifact(blob));
  ASSERT_EQ(back.policy.states.size(), data_.policy.states.size());
  ASSERT_EQ(back.policy.labels.size(), data_.policy.labels.size());
  ASSERT_EQ(back.model_samples.size(), data_.model_samples.size());
  for (std::size_t i = 0; i < data_.policy.states.size(); ++i) {
    EXPECT_EQ(back.policy.states[i], data_.policy.states[i]);  // bitwise: doubles verbatim
    EXPECT_EQ(back.policy.labels[i], data_.policy.labels[i]);
  }
  for (std::size_t i = 0; i < data_.model_samples.size(); ++i) {
    const ModelSample& a = data_.model_samples[i];
    const ModelSample& b = back.model_samples[i];
    EXPECT_EQ(b.config, a.config);
    EXPECT_EQ(b.time_s, a.time_s);
    EXPECT_EQ(b.instructions, a.instructions);
    EXPECT_EQ(b.power_w, a.power_w);
    EXPECT_EQ(b.workload.mpki, a.workload.mpki);
    EXPECT_EQ(b.workload.bmpki, a.workload.bmpki);
    EXPECT_EQ(b.workload.mem_ai, a.workload.mem_ai);
    EXPECT_EQ(b.workload.ext_per_inst, a.workload.ext_per_inst);
    EXPECT_EQ(b.workload.pf_proxy, a.workload.pf_proxy);
    EXPECT_EQ(b.workload.cpi_obs, a.workload.cpi_obs);
    EXPECT_EQ(b.workload.runnable, a.workload.runnable);
  }
  // A truncated or padded blob is structurally invalid: the store is a
  // cache, so import must reject it rather than guess.
  std::vector<double> bad = blob;
  bad.pop_back();
  EXPECT_FALSE(back.import_artifact(bad));
  bad = blob;
  bad.push_back(0.0);
  EXPECT_FALSE(back.import_artifact(bad));
  EXPECT_FALSE(back.import_artifact({}));
}

TEST(OfflineDataKey, SensitiveToEveryArgument) {
  const soc::PlatformParams p;
  const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
  const std::uint64_t base = offline_data_key(p, mibench, Objective::kEnergy, 40, 6, 7, false);
  EXPECT_EQ(offline_data_key(p, mibench, Objective::kEnergy, 40, 6, 7, false), base);
  EXPECT_NE(offline_data_key(p, mibench, Objective::kEdp, 40, 6, 7, false), base);
  EXPECT_NE(offline_data_key(p, mibench, Objective::kEnergy, 41, 6, 7, false), base);
  EXPECT_NE(offline_data_key(p, mibench, Objective::kEnergy, 40, 5, 7, false), base);
  EXPECT_NE(offline_data_key(p, mibench, Objective::kEnergy, 40, 6, 8, false), base);
  EXPECT_NE(offline_data_key(p, mibench, Objective::kEnergy, 40, 6, 7, true), base);
  soc::PlatformParams heavy = p;
  heavy.ceff_big_nf *= 2.0;
  EXPECT_NE(offline_data_key(heavy, mibench, Objective::kEnergy, 40, 6, 7, false), base);

  // A different app list (other apps, a subset, or the same apps in another
  // order) collects a different dataset at the same geometry and seed.
  const std::vector<workloads::AppSpec> sha_fft{workloads::CpuBenchmarks::by_name("SHA"),
                                                workloads::CpuBenchmarks::by_name("FFT")};
  const std::vector<workloads::AppSpec> fft_sha{sha_fft[1], sha_fft[0]};
  const std::vector<workloads::AppSpec> first_two(mibench.begin(), mibench.begin() + 2);
  const std::uint64_t sha_fft_key =
      offline_data_key(p, sha_fft, Objective::kEnergy, 40, 6, 7, false);
  EXPECT_NE(sha_fft_key, base);
  EXPECT_NE(offline_data_key(p, fft_sha, Objective::kEnergy, 40, 6, 7, false), sha_fft_key);
  EXPECT_NE(offline_data_key(p, first_two, Objective::kEnergy, 40, 6, 7, false), base);
  EXPECT_NE(offline_data_key(p, {}, Objective::kEnergy, 40, 6, 7, false), base);
}

TEST_F(OfflineIlFixture, PolicyLearnsTrainingDistribution) {
  common::Rng rng(8);
  IlPolicy policy(plat_.space());
  policy.train_offline(data_.policy, rng);
  EXPECT_TRUE(policy.trained());
  // In-distribution decisions should match the Oracle labels almost always.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data_.policy.states.size(); i += 3) {
    hits += policy.decide(data_.policy.states[i]) == data_.policy.labels[i];
  }
  const double acc =
      static_cast<double>(hits) / static_cast<double>((data_.policy.states.size() + 2) / 3);
  EXPECT_GT(acc, 0.9);
}

TEST_F(OfflineIlFixture, PolicyFitsFirmwareBudget) {
  IlPolicy policy(plat_.space());
  // Paper: policy + training buffer below 20 KB.
  EXPECT_LT(policy.storage_bytes(), 20u * 1024u);
}

TEST_F(OfflineIlFixture, IncrementalTrainingMovesPolicy) {
  common::Rng rng(9);
  IlPolicy policy(plat_.space());
  policy.train_offline(data_.policy, rng);
  // Build a tiny runtime dataset pointing all states to one fixed label.
  PolicyDataset ds;
  const soc::SocConfig target{4, 0, 12, 0};
  for (std::size_t i = 0; i < 100; ++i) {
    ds.states.push_back(data_.policy.states[i]);
    ds.labels.push_back(target);
  }
  policy.train_incremental(ds, 30, rng);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 100; ++i) hits += policy.decide(ds.states[i]) == target;
  EXPECT_GT(hits, 80u);
}

TEST(IlPolicy, UntrainedUseThrows) {
  soc::ConfigSpace space;
  IlPolicy policy(space);
  EXPECT_THROW(policy.decide(common::Vec(12, 0.0)), std::logic_error);
  PolicyDataset empty;
  common::Rng rng(1);
  EXPECT_THROW(policy.train_offline(empty, rng), std::invalid_argument);
  PolicyDataset ds;
  ds.states.push_back(common::Vec(12, 0.0));
  ds.labels.push_back(soc::SocConfig{1, 0, 0, 0});
  EXPECT_THROW(policy.train_incremental(ds, 1, rng), std::logic_error);
}

}  // namespace
}  // namespace oal::core
