// Tests for feature extraction and the online power/performance models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/models.h"
#include "core/oracle.h"
#include "ml/scaler.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

soc::SnippetDescriptor sample_snippet() {
  soc::SnippetDescriptor s;
  s.instructions = 20e6;
  s.base_cpi_little = 1.7;
  s.base_cpi_big = 1.0;
  s.l2_mpki = 4.0;
  s.branch_mpki = 3.0;
  s.parallel_fraction = 0.3;
  s.max_threads = 4;
  return s;
}

TEST(WorkloadFeatures, RatesMatchDescriptors) {
  soc::BigLittlePlatform plat;
  const auto s = sample_snippet();
  const soc::SocConfig c{2, 2, 8, 10};
  const auto r = plat.execute_ideal(s, c);
  const WorkloadFeatures w = workload_features(r.counters, c);
  EXPECT_NEAR(w.mpki, s.l2_mpki, 0.01);
  EXPECT_NEAR(w.bmpki, s.branch_mpki, 0.01);
  EXPECT_NEAR(w.mem_ai, s.mem_access_per_inst, 0.01);
  EXPECT_GT(w.cpi_obs, 0.0);
  EXPECT_GE(w.pf_proxy, 0.0);
  EXPECT_LE(w.pf_proxy, 1.0);
  EXPECT_GE(w.runnable, 1.0);
}

TEST(WorkloadFeatures, ParallelismVisibleThroughRunnable) {
  soc::BigLittlePlatform plat;
  auto par = sample_snippet();
  par.parallel_fraction = 0.9;
  auto ser = sample_snippet();
  ser.parallel_fraction = 0.0;
  ser.max_threads = 1;
  const soc::SocConfig one_core{1, 0, 8, 0};
  const auto wp = workload_features(plat.execute_ideal(par, one_core).counters, one_core);
  const auto ws = workload_features(plat.execute_ideal(ser, one_core).counters, one_core);
  EXPECT_GT(wp.runnable, ws.runnable + 1.0);
}

TEST(FeatureExtractor, PolicyFeatureDimension) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  const auto r = plat.execute_ideal(sample_snippet(), {2, 2, 8, 10});
  const auto f = fx.policy_features(r.counters, {2, 2, 8, 10});
  EXPECT_EQ(f.size(), fx.policy_dim());
}

TEST(FeatureExtractor, ThermalAwareAppendsWithoutPerturbingBlindFeatures) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor blind(plat.space());
  const FeatureExtractor aware(plat.space(), /*thermal_aware=*/true);
  EXPECT_EQ(aware.policy_dim(), blind.policy_dim() + FeatureExtractor::kThermalDims);

  const soc::SocConfig c{2, 2, 8, 10};
  const auto r = plat.execute_ideal(sample_snippet(), c);

  soc::ThermalTelemetry hot;
  hot.constrained = true;
  hot.junction_c = 55.0;
  hot.skin_c = 41.0;
  hot.junction_limit_c = 85.0;
  hot.skin_limit_c = 45.0;
  hot.ambient_c = 25.0;
  hot.budget_w = 2.0;

  // A blind extractor must be bitwise-insensitive to telemetry: the blind
  // training/runtime path stays byte-identical whether or not a telemetry
  // source is bound.
  const auto f_blind = blind.policy_features(r.counters, c);
  const auto f_blind_hot = blind.policy_features(r.counters, c, hot);
  ASSERT_EQ(f_blind.size(), blind.policy_dim());
  ASSERT_EQ(f_blind_hot.size(), f_blind.size());
  for (std::size_t i = 0; i < f_blind.size(); ++i)
    EXPECT_DOUBLE_EQ(f_blind[i], f_blind_hot[i]);

  // Aware features: the blind prefix is unchanged, thermal dims appended.
  const auto f_aware_hot = aware.policy_features(r.counters, c, hot);
  ASSERT_EQ(f_aware_hot.size(), aware.policy_dim());
  for (std::size_t i = 0; i < f_blind.size(); ++i)
    EXPECT_DOUBLE_EQ(f_aware_hot[i], f_blind[i]);
  const std::size_t base = blind.policy_dim();
  EXPECT_NEAR(f_aware_hot[base + 0], (55.0 - 25.0) / (85.0 - 25.0), 1e-12);
  EXPECT_NEAR(f_aware_hot[base + 1], (41.0 - 25.0) / (45.0 - 25.0), 1e-12);
  EXPECT_NEAR(f_aware_hot[base + 2], 2.0 / soc::ThermalTelemetry::kUnconstrainedBudgetW, 1e-12);

  // Neutral (default) telemetry encodes a cool, unconstrained device.
  const auto f_aware_neutral = aware.policy_features(r.counters, c);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 0], 0.0);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 1], 0.0);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 2], 1.0);
}

TEST(StandardScaler, ConstantFeaturesAreCenteredNotAmplified) {
  // The neutral thermal features are constant across an offline dataset; the
  // scaler must give them scale 1.0 (sklearn behavior), not divide by a ~0
  // std that would launch any runtime deviation to ~1e9.
  ml::StandardScaler scaler;
  scaler.fit({{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}});
  const auto s = scaler.stds();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GT(s[0], 0.5);  // real variance: standardized normally
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  const auto z = scaler.transform({2.0, 0.75});
  EXPECT_DOUBLE_EQ(z[0], 0.0);
  EXPECT_DOUBLE_EQ(z[1], 0.75);  // centered at the constant, unscaled

  // Near-constant (but not exactly constant) features are floored, not
  // amplified through a ~0 std: amplification is bounded by 1/kMinScale.
  ml::StandardScaler near;
  near.fit({{0.0}, {1e-5}, {0.0}, {1e-5}});
  EXPECT_DOUBLE_EQ(near.stds()[0], 1e-2);
  EXPECT_LE(std::abs(near.transform({0.75})[0]), 100.0);
}

TEST(OfflineData, ThermalAwareCollectionMatchesPolicyDim) {
  soc::BigLittlePlatform plat;
  common::Rng rng(3);
  const std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("SHA")};
  const OfflineData off = collect_offline_data(plat, apps, Objective::kEnergy, 2, 2, rng,
                                               nullptr, /*thermal_aware=*/true);
  ASSERT_FALSE(off.policy.states.empty());
  const FeatureExtractor aware(plat.space(), true);
  for (const auto& s : off.policy.states) EXPECT_EQ(s.size(), aware.policy_dim());
}

TEST(FeatureExtractor, ModelFeatureDimension) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  const WorkloadFeatures w;
  EXPECT_EQ(fx.model_features(w, {1, 0, 0, 0}).size(), fx.model_dim());
  EXPECT_EQ(fx.model_features(w, {4, 4, 12, 18}).size(), fx.model_dim());
}

TEST(FeatureExtractor, BigKnobsInertWhenClusterOff) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  WorkloadFeatures w;
  w.mpki = 3.0;
  const auto a = fx.model_features(w, {2, 0, 5, 3});
  const auto b = fx.model_features(w, {2, 0, 5, 15});
  // With the big cluster gated, its frequency must not change any feature.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

class ModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(11);
    const auto apps = workloads::CpuBenchmarks::all();  // train on everything
    data_ = collect_offline_data(plat_, apps, Objective::kEnergy, 10, 5, rng);
    models_.bootstrap(data_.model_samples);
  }
  soc::BigLittlePlatform plat_;
  OnlineSocModels models_{plat_.space()};
  OfflineData data_;
};

TEST_F(ModelFixture, BootstrapPredictsInDistribution) {
  // On the training distribution the bootstrapped models should predict
  // time within ~30% and power within ~25% on most samples.  (The offline
  // fit is a global linear-in-features model over all 4940 configurations;
  // the online RLS updates are what sharpen it around the operating point —
  // covered by OnlineUpdatesReduceErrorOnNewWorkload below.)
  common::Rng rng(12);
  int good_t = 0, good_p = 0, total = 0;
  for (std::size_t i = 0; i < data_.model_samples.size(); i += 13) {
    const auto& s = data_.model_samples[i];
    const double tp = models_.predict_time_s(s.workload, s.config, s.instructions);
    const double pp = models_.predict_power_w(s.workload, s.config);
    good_t += std::abs(tp - s.time_s) / s.time_s < 0.30;
    good_p += std::abs(pp - s.power_w) / s.power_w < 0.25;
    ++total;
  }
  EXPECT_GT(static_cast<double>(good_t) / total, 0.75);
  EXPECT_GT(static_cast<double>(good_p) / total, 0.8);
}

TEST_F(ModelFixture, OnlineUpdatesReduceErrorOnNewWorkload) {
  // Synthetic workload far from anything in training.
  soc::SnippetDescriptor s;
  s.instructions = 20e6;
  s.base_cpi_little = 2.6;
  s.base_cpi_big = 2.1;
  s.l2_mpki = 16.0;
  s.branch_mpki = 8.0;
  s.parallel_fraction = 0.5;
  s.max_threads = 4;
  const soc::SocConfig c{3, 1, 10, 8};
  soc::BigLittlePlatform plat;
  double first_err = -1.0, last_err = 0.0;
  for (int i = 0; i < 60; ++i) {
    const auto r = plat.execute_ideal(s, c);
    const auto w = workload_features(r.counters, c);
    const double pred = models_.predict_time_s(w, c, s.instructions);
    const double err = std::abs(pred - r.exec_time_s) / r.exec_time_s;
    if (first_err < 0.0) first_err = err;
    last_err = err;
    models_.update(ModelSample{w, c, r.exec_time_s, 20e6, r.avg_power_w});
  }
  EXPECT_LT(last_err, 0.05);
  EXPECT_LE(last_err, first_err + 1e-9);
}

TEST_F(ModelFixture, CandidateRankingMatchesGroundTruthLocally) {
  // The models' purpose: rank a local neighborhood like ground truth does.
  soc::BigLittlePlatform plat;
  common::Rng rng(13);
  const auto& app = workloads::CpuBenchmarks::by_name("FFT");
  const auto trace = workloads::CpuBenchmarks::trace(app, 5, rng);
  const soc::SocConfig current{2, 1, 8, 10};
  const auto r = plat.execute_ideal(trace[2], current);
  const auto w = workload_features(r.counters, current);
  const auto cands = plat.space().neighborhood(current, 1, 2);
  // Find predicted and true argmin.
  double best_pred = 1e300, best_true = 1e300;
  soc::SocConfig cp, ct;
  for (const auto& c : cands) {
    const double pe = models_.predict_energy_j(w, c, trace[2].instructions);
    const double te = plat.execute_ideal(trace[2], c).energy_j;
    if (pe < best_pred) { best_pred = pe; cp = c; }
    if (te < best_true) { best_true = te; ct = c; }
  }
  // The config the models pick must be within 5% of the truly best energy.
  const double chosen_true_e = plat.execute_ideal(trace[2], cp).energy_j;
  EXPECT_LT(chosen_true_e / best_true, 1.05);
}

TEST_F(ModelFixture, LogCostMonotoneWithEnergy) {
  const auto& s = data_.model_samples.front();
  const soc::SocConfig a{1, 0, 0, 0};
  const soc::SocConfig b{4, 4, 12, 18};
  const double ea = models_.predict_energy_j(s.workload, a, 20e6);
  const double eb = models_.predict_energy_j(s.workload, b, 20e6);
  const double ca = models_.predict_log_cost(s.workload, a);
  const double cb = models_.predict_log_cost(s.workload, b);
  EXPECT_EQ(ea < eb, ca < cb);
}

TEST(OnlineSocModels, RejectsBadSamples) {
  soc::BigLittlePlatform plat;
  OnlineSocModels m(plat.space());
  EXPECT_THROW(m.bootstrap({}), std::invalid_argument);
  ModelSample s;
  s.time_s = 0.0;
  s.instructions = 1.0;
  s.power_w = 1.0;
  EXPECT_THROW(m.update(s), std::invalid_argument);
}

TEST(OnlineSocModels, RejectsNonFiniteSamplesAndLeavesModelsUntouched) {
  soc::BigLittlePlatform plat;
  const auto snip = sample_snippet();
  std::vector<ModelSample> boot;
  for (const soc::SocConfig& c : plat.space().neighborhood({2, 2, 6, 9}, 1, 2)) {
    const auto r = plat.execute_ideal(snip, c);
    boot.push_back({workload_features(r.counters, c), c, r.exec_time_s, snip.instructions,
                    r.avg_power_w});
  }
  OnlineSocModels m(plat.space());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  // A NaN/Inf sample must not bootstrap either.
  std::vector<ModelSample> poisoned_boot = boot;
  poisoned_boot[3].time_s = nan;
  EXPECT_THROW(m.bootstrap(poisoned_boot), std::invalid_argument);
  EXPECT_FALSE(m.bootstrapped());
  m.bootstrap(boot);
  OnlineSocModels twin = m;  // never sees a poisoned sample

  const ModelSample good = boot.front();
  std::vector<ModelSample> bad;
  for (const double v : {nan, inf, -inf}) {
    ModelSample s = good;
    s.time_s = v;
    bad.push_back(s);
    s = good;
    s.power_w = v;
    bad.push_back(s);
    s = good;
    s.instructions = v;
    bad.push_back(s);
    for (double WorkloadFeatures::*f :
         {&WorkloadFeatures::mpki, &WorkloadFeatures::bmpki, &WorkloadFeatures::mem_ai,
          &WorkloadFeatures::ext_per_inst, &WorkloadFeatures::pf_proxy,
          &WorkloadFeatures::cpi_obs, &WorkloadFeatures::runnable}) {
      s = good;
      s.workload.*f = v;
      bad.push_back(s);
    }
  }
  // Finite inputs whose log targets are not: time per instruction underflows.
  ModelSample tiny = good;
  tiny.time_s = 1e-300;
  tiny.instructions = 1e300;
  bad.push_back(tiny);

  DecisionBasis d(plat.space());
  for (const ModelSample& s : bad) {
    EXPECT_THROW(m.update(s), std::invalid_argument);
    EXPECT_THROW(m.update(s, d), std::invalid_argument);
  }
  EXPECT_EQ(m.online_updates(), 0u);
  // Weights and covariance untouched: two more valid updates agree bitwise
  // with the twin's (the second innovation depends on the first update's
  // covariance), and so do both models' predictions afterwards.
  for (std::size_t i = 0; i < 2; ++i) {
    const double e1 = m.update(boot[i]);
    const double e2 = twin.update(boot[i]);
    EXPECT_EQ(std::memcmp(&e1, &e2, sizeof e1), 0) << "update " << i;
  }
  for (const ModelSample& s : boot) {
    const double c1 = m.predict_log_cost(s.workload, s.config);
    const double c2 = twin.predict_log_cost(s.workload, s.config);
    const double p1 = m.predict_power_w(s.workload, s.config);
    const double p2 = twin.predict_power_w(s.workload, s.config);
    EXPECT_EQ(std::memcmp(&c1, &c2, sizeof c1), 0);
    EXPECT_EQ(std::memcmp(&p1, &p2, sizeof p1), 0);
  }
}

// ---- Bit parity of the per-decision basis with the per-candidate basis ------
// The model basis exactly as FeatureExtractor::model_features_into built it
// for every candidate before the per-decision tables existed: three logs and
// the 23 terms per call.  It lives only here, as the oracle the tabulated
// basis (ModelBasis), its gather, and the product-table sums must reproduce
// bit for bit; everything is compared with memcmp, so even a flipped zero
// sign or one reassociated sum fails.
common::Vec reference_phi(const soc::ConfigSpace& space, const WorkloadFeatures& w,
                          const soc::SocConfig& c) {
  const double f_l = space.little_freq_mhz(c) / 1000.0;
  const double f_b = space.big_freq_mhz(c) / 1000.0;
  const double n_l = static_cast<double>(c.num_little);
  const double n_b = static_cast<double>(c.num_big);
  const bool big_on = c.num_big >= 1;
  const double log_fl = std::log(f_l);
  const double log_fb = big_on ? std::log(f_b) : 0.0;
  const double mpki = w.mpki;
  const double pf = w.runnable > 1.0 ? std::clamp((w.runnable - 1.0) / w.runnable, 0.0, 1.0)
                                     : w.pf_proxy;
  const double w_eff = std::min(std::max(w.runnable, 1.0), n_l + (big_on ? n_b : 0.0));
  const double width = std::log(std::max(w_eff, 1.0));
  return {1.0,
          log_fl,
          log_fb,
          big_on ? 1.0 : 0.0,
          mpki,
          mpki * f_l,
          mpki * (big_on ? f_b : 0.0),
          w.bmpki,
          pf,
          pf * width,
          n_l,
          big_on ? n_b : 0.0,
          f_l,
          big_on ? f_b : 0.0,
          f_l * f_l,
          big_on ? f_b * f_b : 0.0,
          pf * log_fl,
          pf * log_fb,
          w.mem_ai,
          w.ext_per_inst,
          w_eff,
          pf * w_eff,
          pf / std::max(w_eff, 1.0)};
}

/// Counts bitwise mismatches and remembers the first for the failure text.
struct BitDiff {
  std::size_t mismatches = 0;
  std::string first;
  void check(double got, double want, const std::string& what) {
    if (std::memcmp(&got, &want, sizeof got) == 0) return;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << what << ": " << std::setprecision(17) << got << " vs " << want;
      first = os.str();
    }
  }
};

/// Edge workloads of the basis: run-queue depths below, at and above one
/// core and above the 8-core width, the utilization-proxy branch (runnable
/// <= 1), zero memory intensity, and an observed workload.
std::vector<WorkloadFeatures> edge_workloads(const WorkloadFeatures& observed) {
  std::vector<WorkloadFeatures> ws{observed};
  for (const double runnable : {0.5, 1.0, 2.5, 8.0, 12.0}) {
    WorkloadFeatures w = observed;
    w.runnable = runnable;
    w.pf_proxy = 0.37;
    ws.push_back(w);
  }
  WorkloadFeatures no_misses = observed;
  no_misses.mpki = 0.0;
  no_misses.runnable = 3.0;
  ws.push_back(no_misses);
  return ws;
}

TEST_F(ModelFixture, DecisionBasisMatchesReferenceBitwiseOnEveryConfig) {
  // Online updates move the weights off the ridge fit, as in a run.
  const auto& s0 = data_.model_samples.front();
  for (std::size_t i = 0; i < 40; i += 7) models_.update(data_.model_samples[i]);
  const soc::ConfigSpace& space = plat_.space();
  const FeatureExtractor fx(space);
  // Weights of comparable magnitude make the sums sensitive to the order in
  // which terms are added: a fitted model's tiny weights alone can let a
  // reordered sum round identically on every configuration.
  common::Rng rng(29);
  common::Vec theta_u(ModelBasis::kDim), theta_v(ModelBasis::kDim);
  for (double& v : theta_u) v = rng.uniform(-1.0, 1.0);
  for (double& v : theta_v) v = rng.uniform(-1.0, 1.0);
  const std::vector<soc::SocConfig> configs = space.enumerate();
  DecisionBasis d(space);
  ModelBasis basis(space);
  std::vector<double> weighed_u;
  common::Vec phi;
  BitDiff diff;
  for (const WorkloadFeatures& w : edge_workloads(s0.workload)) {
    // The controller's path: one update from a sample of workload w fills
    // d for w; the updated model's by-value predictors are the reference.
    OnlineSocModels m = models_;
    ModelSample observed = s0;
    observed.workload = w;
    m.update(observed, d);
    basis.build(w);
    basis.weigh_into(theta_u, theta_v, weighed_u);
    for (const soc::SocConfig& c : configs) {
      const std::string at = soc::ConfigSpace::to_string(c) + " runnable " +
                             std::to_string(w.runnable) + " mpki " + std::to_string(w.mpki);
      const common::Vec ref = reference_phi(space, w, c);
      fx.model_features_into(w, c, phi);
      for (std::size_t j = 0; j < ref.size(); ++j)
        diff.check(phi[j], ref[j], "model_features " + at + " term " + std::to_string(j));
      basis.phi_into(basis.rows(c), phi);
      for (std::size_t j = 0; j < ref.size(); ++j)
        diff.check(phi[j], ref[j], "phi_into " + at + " term " + std::to_string(j));
      const auto [sum_u, sum_v] = ModelBasis::sum(weighed_u, basis.rows(c));
      diff.check(sum_u, common::dot(theta_u, ref), "uniform-weight sum a " + at);
      diff.check(sum_v, common::dot(theta_v, ref), "uniform-weight sum b " + at);
      // With phi bitwise equal to the reference, the by-value predictors
      // are theta' phi_ref; the tables' sums must match them exactly.
      const DecisionBasis::Score sc = d.score(c);
      diff.check(sc.log_time + sc.log_power, m.predict_log_cost(w, c), "log_cost " + at);
      diff.check(std::exp(sc.log_time), m.predict_time_s(w, c, 1.0), "time " + at);
      diff.check(std::exp(sc.log_power), m.predict_power_w(w, c), "power " + at);
    }
  }
  EXPECT_EQ(diff.mismatches, 0u) << "first: " << diff.first;
}

TEST_F(ModelFixture, DecisionUpdateMatchesByValueUpdateBitwise) {
  // The per-decision update gathers its phi from the tables; a twin model
  // updated through the by-value path must stay bitwise identical (equal
  // innovations, which depend on the previous steps' weights and
  // covariance), and the product tables must score like the twin's
  // by-value predictors after each step.
  OnlineSocModels twin = models_;
  DecisionBasis d(plat_.space());
  BitDiff diff;
  for (std::size_t i = 0; i < data_.model_samples.size(); i += 11) {
    const ModelSample& s = data_.model_samples[i];
    const std::string at = "sample " + std::to_string(i);
    diff.check(models_.update(s, d), twin.update(s), "innovation " + at);
    const DecisionBasis::Score sc = d.score(s.config);
    diff.check(sc.log_time + sc.log_power, twin.predict_log_cost(s.workload, s.config),
               "log_cost " + at);
    diff.check(std::exp(sc.log_time), twin.predict_time_s(s.workload, s.config, 1.0),
               "time " + at);
    diff.check(std::exp(sc.log_power), twin.predict_power_w(s.workload, s.config),
               "power " + at);
  }
  EXPECT_EQ(diff.mismatches, 0u) << "first: " << diff.first;
}

TEST(ModelBasis, RejectsInvalidConfigurations) {
  const ModelBasis basis{soc::ConfigSpace{}};
  for (const soc::SocConfig& c : {soc::SocConfig{0, 2, 0, 0}, soc::SocConfig{5, 2, 0, 0},
                                  soc::SocConfig{2, -1, 0, 0}, soc::SocConfig{2, 5, 0, 0},
                                  soc::SocConfig{2, 2, 13, 0}, soc::SocConfig{2, 2, -1, 0},
                                  soc::SocConfig{2, 0, 0, 19}})
    EXPECT_THROW(basis.rows(c), std::invalid_argument) << soc::ConfigSpace::to_string(c);
}

}  // namespace
}  // namespace oal::core
