// The decision hot path, and the thermal budgeter it runs under, is
// allocation-free in steady state.
//
// "Steady state" means: scratch/feature buffers have grown to their final
// sizes (first decide), the DQN replay ring is preallocated, and the
// tabular-Q table already contains the visited states.  Amortized work is
// excluded from the per-decide probes by construction — IL retraining
// (buffer fills), DQN minibatch training (min_replay gate), and first-visit
// Q-row insertion are deliberate, bounded work outside the per-decide path.
// The minibatch optimizer step itself (Mlp / MultiHeadClassifier
// train_batch) is probed separately: once its training workspace has grown
// to the batch size it allocates nothing either.
//
// alloc_guard.h defines the counting global operator new for this binary,
// so it must be included here and nowhere else in this target.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>

#include "alloc_guard.h"

#include "core/artifact_store.h"
#include "core/governors.h"
#include "core/il_policy.h"
#include "core/models.h"
#include "core/nmpc.h"
#include "core/online_il.h"
#include "core/oracle.h"
#include "core/rl_controller.h"
#include "ml/mlp.h"
#include "ml/qlearn.h"
#include "ml/rls.h"
#include "soc/platform.h"
#include "soc/thermal_platform.h"
#include "workloads/cpu_benchmarks.h"
#include "workloads/gpu_benchmarks.h"

namespace oal::core {
namespace {

using alloc_guard::AllocationProbe;

/// Synthetic but well-spread policy dataset: enough structure to train a
/// small network deterministically, no Oracle search required.
PolicyDataset synthetic_dataset(const soc::ConfigSpace& space, std::size_t n, common::Rng& rng) {
  PolicyDataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    common::Vec s(12);
    for (double& v : s) v = rng.uniform(-2.0, 2.0);
    ds.states.push_back(std::move(s));
    ds.labels.push_back(space.config_at(
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(space.size()) - 1))));
  }
  return ds;
}

/// Recorded (result, executed) transitions for replaying a controller over
/// an identical stimulus stream.
struct Recorded {
  soc::SnippetResult result;
  soc::SocConfig executed;
};

std::vector<Recorded> record_run(soc::BigLittlePlatform& plat, DrmController& ctl,
                                 const std::vector<soc::SnippetDescriptor>& trace,
                                 soc::SocConfig c) {
  std::vector<Recorded> rec;
  rec.reserve(trace.size());
  for (const auto& s : trace) {
    const soc::SnippetResult r = plat.execute(s, c);
    rec.push_back({r, c});
    c = ctl.step(r, c);
  }
  return rec;
}

TEST(HotPathAlloc, GovernorsNeverAllocatePerStep) {
  soc::BigLittlePlatform plat;
  OndemandGovernor ondemand(plat.space());
  InteractiveGovernor interactive(plat.space());
  PerformanceGovernor performance(plat.space());
  PowersaveGovernor powersave;
  common::Rng rng(1);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 8, rng);
  soc::SocConfig c{2, 2, 6, 9};
  std::vector<soc::SnippetResult> results;
  results.reserve(trace.size());
  for (const auto& s : trace) results.push_back(plat.execute(s, c));

  soc::SocConfig sink{};
  AllocationProbe probe;
  for (const auto& r : results) {
    sink = ondemand.step(r, c);
    sink = interactive.step(r, sink);
    sink = performance.step(r, sink);
    sink = powersave.step(r, sink);
  }
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_TRUE(plat.space().valid(sink));
}

TEST(HotPathAlloc, IlPolicyScratchDecideIsAllocFree) {
  soc::ConfigSpace space;
  IlPolicy policy(space);
  common::Rng rng(11);
  const PolicyDataset ds = synthetic_dataset(space, 300, rng);
  policy.train_offline(ds, rng);

  // One decide grows the scratch buffers; every further decide is
  // heap-silent.
  IlPolicy::Scratch scratch;
  (void)policy.decide(ds.states.front(), scratch);
  AllocationProbe probe;
  for (const auto& s : ds.states) (void)policy.decide(s, scratch);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, MultiHeadPredictIntoIsAllocFree) {
  ml::MultiHeadClassifier net(12, {4, 5, 13, 19});
  ml::MultiHeadClassifier::InferScratch scratch;
  std::vector<std::size_t> cls;
  common::Vec x(12, 0.25);
  net.predict_into(x, cls, scratch);
  AllocationProbe probe;
  for (int i = 0; i < 100; ++i) net.predict_into(x, cls, scratch);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, MultiHeadTrainBatchIsAllocFreeAfterWarmup) {
  // The IL policy network: 12 features -> 24 -> 24 -> heads {4, 5, 13, 19}.
  ml::MlpConfig cfg;
  cfg.hidden = {24, 24};
  ml::MultiHeadClassifier net(12, {4, 5, 13, 19}, cfg);
  common::Rng rng(29);
  const std::size_t heads[] = {4, 5, 13, 19};
  std::vector<common::Mat> xs;
  std::vector<std::vector<std::vector<std::size_t>>> labels;
  for (std::size_t bsz : {16u, 7u, 16u, 1u}) {
    common::Mat x(bsz, 12);
    std::vector<std::vector<std::size_t>> l(bsz);
    for (std::size_t r = 0; r < bsz; ++r) {
      for (std::size_t c = 0; c < 12; ++c) x(r, c) = rng.uniform(-2.0, 2.0);
      for (std::size_t h : heads)
        l[r].push_back(static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(h) - 1)));
    }
    xs.push_back(std::move(x));
    labels.push_back(std::move(l));
  }
  (void)net.train_batch(xs[0], labels[0]);  // grows the workspace to 16 rows

  // Smaller and equal batches reuse the grown workspace.
  double loss = 0.0;
  AllocationProbe probe;
  for (int rep = 0; rep < 5; ++rep)
    for (std::size_t b = 0; b < xs.size(); ++b) loss += net.train_batch(xs[b], labels[b]);
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(HotPathAlloc, MlpTrainBatchIsAllocFreeAfterWarmup) {
  ml::MlpConfig cfg;
  cfg.hidden = {16, 8};
  ml::Mlp net(5, 3, cfg);
  common::Rng rng(31);
  common::Mat x(17, 5), t(17, 3), mask(17, 3);
  for (std::size_t r = 0; r < 17; ++r) {
    for (std::size_t c = 0; c < 5; ++c) x(r, c) = rng.uniform(-1.5, 1.5);
    for (std::size_t c = 0; c < 3; ++c) {
      t(r, c) = rng.uniform(-1.0, 1.0);
      mask(r, c) = rng.uniform() < 0.5 ? 1.0 : 0.0;
    }
  }
  (void)net.train_batch(x, t, &mask);  // grows the workspace to 17 rows

  double loss = 0.0;
  AllocationProbe probe;
  for (int rep = 0; rep < 10; ++rep) {
    loss += net.train_batch(x, t, &mask);
    loss += net.train_batch(x, t);
  }
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(HotPathAlloc, TabularQSteadyStateStepIsAllocFree) {
  soc::BigLittlePlatform plat;
  QLearningController ctl(plat.space());
  ctl.begin_run({2, 2, 6, 9});
  common::Rng rng(2);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Qsort"), 60, rng);
  // Warm-up pass: visits (and therefore inserts) every discretized state the
  // replay below will see.
  const std::vector<Recorded> rec = record_run(plat, ctl, trace, {2, 2, 6, 9});
  ASSERT_GT(ctl.table_states(), 1u);

  // One unmeasured replay first: Q-rows are inserted by update(), whose
  // `state` argument trails one step behind, so the final recorded state's
  // row appears here — the first visit, a deliberate amortized allocation.
  for (const Recorded& r : rec) (void)ctl.step(r.result, r.executed);

  // Steady state: every replayed state is in the table, so no row is
  // inserted and the whole step (discretize, update, select, apply) stays off
  // the heap.
  AllocationProbe probe;
  for (const Recorded& r : rec) (void)ctl.step(r.result, r.executed);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, DqnControllerDecideIsAllocFreeOutsideTraining) {
  soc::BigLittlePlatform plat;
  ml::DqnConfig cfg;
  cfg.replay_capacity = 64;
  // Push the amortized work past this test's horizon: the gate below never
  // opens, isolating the per-decide path (features, forward pass, ring
  // insert) the assertion is about.
  cfg.min_replay = 1u << 20;
  cfg.target_sync_period = 1u << 20;
  DqnController ctl(plat.space(), cfg);
  ctl.begin_run({2, 2, 6, 9});
  common::Rng rng(3);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("AES"), 40, rng);
  const std::vector<Recorded> rec = record_run(plat, ctl, trace, {2, 2, 6, 9});
  // One unmeasured replay warms every lazily-sized buffer (feature vector,
  // greedy-path inference scratch) along both epsilon-greedy branches.
  for (const Recorded& r : rec) (void)ctl.step(r.result, r.executed);

  // Feature buffer, inference scratch, and replay ring are warm/preallocated:
  // replaying the stimulus allocates nothing.
  AllocationProbe probe;
  for (const Recorded& r : rec) (void)ctl.step(r.result, r.executed);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, DqnReplayRingMatchesDequeEvictionOrder) {
  ml::DqnConfig cfg;
  cfg.replay_capacity = 8;
  cfg.min_replay = 1u << 20;  // keep training out of the ordering question
  ml::Dqn dqn(3, 2, cfg);
  std::deque<double> shadow;  // the retired implementation: push_back + pop_front
  for (int i = 0; i < 21; ++i) {
    const common::Vec state(3, static_cast<double>(i));
    const common::Vec next(3, static_cast<double>(i) + 0.5);
    dqn.observe(state, static_cast<std::size_t>(i % 2), 0.1 * i, next);
    shadow.push_back(static_cast<double>(i));
    if (shadow.size() > cfg.replay_capacity) shadow.pop_front();
  }
  ASSERT_EQ(dqn.replay_size(), cfg.replay_capacity);
  for (std::size_t i = 0; i < cfg.replay_capacity; ++i) {
    // replay_at(i) is the i-th oldest, exactly as the deque indexed it.
    EXPECT_EQ(dqn.replay_at(i).state[0], shadow[i]);
    EXPECT_EQ(dqn.replay_at(i).action, static_cast<std::size_t>(shadow[i]) % 2);
    EXPECT_EQ(dqn.replay_at(i).next_state[0], shadow[i] + 0.5);
  }
}

TEST(HotPathAlloc, RlsScratchUpdateIsAllocFreeAndBitwiseEqual) {
  // The scratch overload fuses the P update ((p - k*px) * inv_lambda
  // elementwise) but performs the identical FP operations in the identical
  // order as the by-value outer/-=/*= chain, so two models fed the same
  // stream through the two overloads must stay bitwise-identical.
  ml::RecursiveLeastSquares by_value(6), by_scratch(6);
  ml::RecursiveLeastSquares::Scratch scratch;
  common::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    common::Vec x(6);
    for (double& v : x) v = rng.uniform(-2.0, 2.0);
    const double y = rng.uniform(-1.0, 1.0);
    const double e0 = by_value.update(x, y);
    const double e1 = by_scratch.update(x, y, scratch);
    EXPECT_EQ(e1, e0);
  }
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(by_scratch.weights()[i], by_value.weights()[i]);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(by_scratch.covariance()(i, j), by_value.covariance()(i, j));

  // Warm scratch: every further update is heap-silent.
  common::Vec x(6, 0.3);
  AllocationProbe probe;
  for (int i = 0; i < 100; ++i) (void)by_scratch.update(x, 0.25, scratch);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, GpuModelsScratchUpdateIsBitwiseEqual) {
  gpu::GpuPlatform plat;
  GpuOnlineModels by_value(plat), by_scratch(plat);
  GpuOnlineModels::UpdateScratch scratch;
  common::Rng rng(5);
  const auto frames = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 40, rng);
  const double period = 1.0 / 30.0;
  GpuWorkloadState w;
  const gpu::GpuConfig c{9, 2};
  for (const auto& f : frames) {
    const auto r = plat.render_ideal(f, c, period);
    by_value.update(w, c, period, r);
    by_scratch.update(w, c, period, r, scratch);
    w.observe(r, by_value.slice_eff(c.num_slices));
  }
  // Both internal RLS models agree bitwise -> every prediction agrees.
  for (const gpu::GpuConfig probe_cfg :
       {gpu::GpuConfig{3, 1}, gpu::GpuConfig{9, 2}, gpu::GpuConfig{15, 4}}) {
    EXPECT_EQ(by_scratch.predict_frame_time_s(w, probe_cfg),
              by_value.predict_frame_time_s(w, probe_cfg));
    EXPECT_EQ(by_scratch.predict_gpu_energy_j(w, probe_cfg, period),
              by_value.predict_gpu_energy_j(w, probe_cfg, period));
  }
}

TEST(HotPathAlloc, NmpcFullStepIsAllocFreeIncludingRefit) {
  // The PR-8 zero-alloc contract covered decide(); with the scratch update
  // the *whole* per-frame NMPC step — model refit, workload EWMA, slow solve
  // or fast trim — stays off the heap, across both rate branches.
  gpu::GpuPlatform plat;
  GpuOnlineModels models(plat);
  common::Rng rng(7);
  bootstrap_gpu_models(plat, models, 1.0 / 30.0, 200, rng);
  NmpcGpuController nmpc(plat, models);
  nmpc.begin_run({9, 4});
  common::Rng trng(3);
  const auto frame = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 1, trng)[0];
  const auto result = plat.render(frame, {9, 4}, 1.0 / 30.0);

  // Warm-up covers a full slow period, so both the slow-tick branch (exact
  // enumeration through phi_buf_) and the fast trim size their buffers.
  gpu::GpuConfig c{9, 4};
  for (std::size_t i = 0; i < 31; ++i) c = nmpc.step(result, c, i);

  AllocationProbe probe;
  for (std::size_t i = 31; i < 151; ++i) c = nmpc.step(result, c, i);
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_TRUE(plat.valid(c));
}

// ---- Thermal budgeter: every refresh is arithmetic only ------------------
//
// The adapters build their PowerBudgeter, network scratch and observe()
// vectors at construction (which also computes the first budget), so every
// later frame/snippet — including the ones that refresh the budget — stays
// off the heap.

soc::ThermalGpuConstraintParams refreshing_gpu_params(double horizon_s) {
  soc::ThermalGpuConstraintParams p;
  p.ambient_c = 35.0;
  p.limits.t_max_skin_c = 40.0;
  p.limits.t_max_junction_c = 75.0;
  p.horizon_s = horizon_s;
  p.budget_interval_s = 1.0 / 30.0;  // refresh on every frame
  p.initial_temperature_c = {48.0, 46.0, 58.0, 45.0, 39.5};
  return p;
}

TEST(HotPathAlloc, ThermalGpuAdapterObserveIsAllocFreeIncludingRefresh) {
  gpu::GpuPlatform plat;
  const double period_s = 1.0 / 30.0;
  common::Rng rng(9);
  const auto frames = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("AngryBirds"), 24, rng);
  std::vector<gpu::FrameResult> results;
  results.reserve(frames.size());
  for (const auto& f : frames) results.push_back(plat.render_ideal(f, {9, 4}, period_s));

  for (double horizon : {0.0, 10.0, 240.0}) {  // steady-state, short and long transient
    soc::ThermalGpuAdapter adapter(plat, period_s, refreshing_gpu_params(horizon));
    std::size_t budget_changes = 0;
    double last_budget = adapter.budget_w();
    AllocationProbe probe;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      adapter.observe(frames[i], {9, 4}, results[i]);
      if (adapter.budget_w() != last_budget) ++budget_changes;
      last_budget = adapter.budget_w();
    }
    EXPECT_EQ(probe.delta(), 0u) << "horizon " << horizon;
    EXPECT_GT(budget_changes, 0u) << "horizon " << horizon << ": refresh never ran";
  }
}

TEST(HotPathAlloc, ThermalSocAdapterObserveIsAllocFreeIncludingRefresh) {
  soc::BigLittlePlatform plat;
  common::Rng rng(4);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 24, rng);
  const soc::SocConfig c{4, 4, 12, 18};
  std::vector<soc::SnippetResult> results;
  results.reserve(trace.size());
  for (const auto& s : trace) results.push_back(plat.execute_ideal(s, c));

  for (double horizon : {0.0, 10.0}) {
    soc::ThermalConstraintParams p;
    p.ambient_c = 40.0;
    p.limits.t_max_junction_c = 55.0;
    p.limits.t_max_skin_c = 43.0;
    p.horizon_s = horizon;
    p.budget_interval_s = 0.0;  // refresh after every snippet
    soc::ThermalSocAdapter adapter(plat, p);
    std::size_t budget_changes = 0;
    double last_budget = adapter.budget_w();
    AllocationProbe probe;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      adapter.observe(trace[i], c, results[i]);
      if (adapter.budget_w() != last_budget) ++budget_changes;
      last_budget = adapter.budget_w();
    }
    EXPECT_EQ(probe.delta(), 0u) << "horizon " << horizon;
    EXPECT_GT(budget_changes, 0u) << "horizon " << horizon << ": refresh never ran";
  }
}

TEST(HotPathAlloc, OnlineIlStepIsAllocFreeBetweenRetrains) {
  // The paper's core loop: model update, policy decide, candidate
  // generation and scoring, exploration and supervision buffering.  Only the
  // periodic retrain (every buffer_capacity decisions) may allocate.
  soc::BigLittlePlatform plat;
  common::Rng rng(21);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Kmeans"), 60, rng);
  std::vector<ModelSample> boot;
  for (const soc::SocConfig& c : plat.space().neighborhood({2, 2, 6, 9}, 1, 2)) {
    const soc::SnippetResult r = plat.execute_ideal(trace[0], c);
    boot.push_back({workload_features(r.counters, c), c, r.exec_time_s,
                    r.counters.instructions_retired, r.avg_power_w});
  }
  // Recorded stimulus at interior configurations, so the first steps already
  // grow the candidate buffers to their largest size.
  std::vector<Recorded> rec;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const soc::SocConfig c{2 + static_cast<int>(i % 2), 2, 5 + static_cast<int>(i % 3),
                           8 + static_cast<int>(i % 4)};
    rec.push_back({plat.execute(trace[i], c), c});
  }

  for (const bool thermal_aware : {false, true}) {
    OnlineSocModels models(plat.space());
    models.bootstrap(boot);
    IlPolicyConfig pcfg;
    pcfg.thermal_aware = thermal_aware;
    IlPolicy pol(plat.space(), pcfg);
    PolicyDataset ds = synthetic_dataset(plat.space(), 300, rng);
    const std::size_t dim = FeatureExtractor(plat.space(), thermal_aware).policy_dim();
    for (common::Vec& st : ds.states) st.resize(dim, 0.5);
    pol.train_offline(ds, rng);
    OnlineIlConfig cfg;
    cfg.buffer_capacity = 40;
    cfg.thermal_aware = thermal_aware;
    OnlineIlController ctl(plat.space(), pol, models, cfg);
    if (thermal_aware) {
      // A budget tight enough that the throttle ladder runs.
      soc::ThermalTelemetry t;
      t.constrained = true;
      t.budget_w = 1.0;
      ctl.observe_telemetry(t);
    }
    // Step past the first retrain so every lazily sized buffer has grown.
    std::size_t i = 0;
    for (; ctl.policy_updates() == 0; ++i) (void)ctl.step(rec[i].result, rec[i].executed);
    const std::size_t fill = ctl.buffer_fill();
    std::size_t steps = 0;
    AllocationProbe probe;
    for (; ctl.buffer_fill() + 1 < cfg.buffer_capacity; ++i, ++steps)
      (void)ctl.step(rec[i % rec.size()].result, rec[i % rec.size()].executed);
    EXPECT_EQ(probe.delta(), 0u) << "thermal_aware " << thermal_aware;
    EXPECT_EQ(ctl.policy_updates(), 1u);
    EXPECT_GT(steps, 30u);
    EXPECT_EQ(ctl.buffer_fill(), fill + steps);
  }
}

TEST(HotPathAlloc, OracleCacheWarmHitIsAllocFree) {
  // A store-preloaded key is served from the cache's immutable table: the
  // key hash, one probe and a counter add, with no lock and no allocation.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "oal-hot-path-warm-oracle";
  std::filesystem::remove_all(dir);
  soc::BigLittlePlatform plat;
  common::Rng rng(43);
  const auto trace =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 4, rng);
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)fill.config(plat, s, Objective::kEnergy);
  }
  OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
  ASSERT_EQ(warm.store_loaded(), trace.size());
  double sum = 0.0;
  AllocationProbe probe;
  for (int round = 0; round < 64; ++round)
    for (const auto& s : trace) {
      sum += warm.cost(plat, s, Objective::kEnergy);
      sum += warm.config(plat, s, Objective::kEnergy).num_big;
    }
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_EQ(warm.searches(), 0u);
  EXPECT_EQ(warm.lookups(), 2 * 64 * trace.size());
  EXPECT_TRUE(std::isfinite(sum));
  std::filesystem::remove_all(dir);
}

TEST(HotPathAlloc, HashStateOverloadsAgree) {
  const std::vector<int> comps{3, 0, 2, 1, 4, 2, 1, 3};
  EXPECT_EQ(ml::hash_state(comps.data(), comps.size()), ml::hash_state(comps));
  const std::vector<int> empty;
  EXPECT_EQ(ml::hash_state(empty.data(), 0), ml::hash_state(empty));
}

}  // namespace
}  // namespace oal::core
