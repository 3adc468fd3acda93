// Tests for the parallel experiment engine: parallel == serial determinism,
// id-ordered aggregation, empty batches, exception propagation, and the
// underlying thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/thread_pool.h"
#include "core/artifact_store.h"
#include "core/domain.h"
#include "core/experiment.h"
#include "core/governors.h"
#include "core/online_il.h"
#include "core/rl_controller.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"
#include "workloads/gpu_benchmarks.h"

namespace oal::core {
namespace {

Scenario governor_scenario(const std::string& id, const std::string& app, std::uint64_t seed) {
  Scenario s;
  s.id = id;
  common::Rng trace_rng(seed);
  s.trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name(app), 10, trace_rng);
  s.seed = seed;
  s.make_controller = [](ScenarioContext& ctx) {
    return ControllerInstance{std::make_unique<OndemandGovernor>(ctx.platform.space()), nullptr};
  };
  return s;
}

/// The small SHA + FFT offline dataset the online-IL test arms train on.
std::shared_ptr<const OfflineData> small_offline_data(bool thermal_aware) {
  OracleCache cache;
  return offline_dataset(soc::PlatformParams{},
                         {workloads::CpuBenchmarks::by_name("SHA"),
                          workloads::CpuBenchmarks::by_name("FFT")},
                         Objective::kEnergy, /*snippets_per_app=*/6, /*configs_per_snippet=*/3,
                         /*collect_seed=*/7, thermal_aware, &cache, /*store=*/nullptr,
                         /*pool=*/nullptr);
}

/// A batch of >= 8 scenarios mixing apps, seeds, and controllers — including
/// stateful Online-IL arms whose candidate search and exploration draw from
/// per-scenario Rng streams.
std::vector<AnyScenario> mixed_batch() {
  std::vector<AnyScenario> batch;
  const char* apps[] = {"SHA", "FFT", "Qsort", "Dijkstra", "Kmeans", "Spectral"};
  for (int i = 0; i < 6; ++i)
    batch.push_back(governor_scenario("gov/" + std::to_string(i), apps[i], 100 + i));
  const auto off = small_offline_data(/*thermal_aware=*/false);
  for (int i = 0; i < 2; ++i) {
    Scenario s;
    s.id = "il/" + std::to_string(i);
    common::Rng trace_rng(200 + i);
    s.trace =
        workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("MotionEst"), 12,
                                        trace_rng);
    s.seed = 300 + i;
    s.make_controller = [i, off](ScenarioContext& ctx) {
      // Exercise the scenario-private stream: the controller's exploration
      // seed comes from ctx.rng, so determinism across pool sizes covers it.
      OnlineIlConfig cfg;
      cfg.seed = ctx.rng.next_u64();
      return online_il_factory(off, /*train_seed=*/5 + i, cfg)(ctx);
    };
    batch.push_back(std::move(s));
  }
  return batch;
}

/// A small GPU-ENMPC scenario: models bootstrap + explicit-law fit run in
/// the factory, drawing the law seed from the scenario-private stream so
/// determinism across pool sizes covers the GPU domain's Rng plumbing too.
/// `thermal_aware` switches the controller to the budget-constrained variant
/// (which also adds the budget dimension to the sampled explicit law).
GpuScenario gpu_enmpc_scenario(const std::string& id, std::uint64_t seed,
                               bool thermal_aware = false) {
  GpuScenario s;
  s.id = id;
  s.seed = seed;
  common::Rng trng(seed);
  s.trace = workloads::GpuBenchmarks::trace(workloads::GpuBenchmarks::by_name("EpicCitadel"), 150,
                                            trng);
  s.initial = gpu::GpuConfig{9, s.platform.max_slices};
  s.make_controller = [thermal_aware](GpuScenarioContext& ctx) {
    NmpcConfig cfg;
    cfg.fps_target = ctx.scenario.fps_target;
    cfg.thermal_aware = thermal_aware;
    return gpu_enmpc_factory(cfg, /*law_samples=*/150, /*bootstrap_frames=*/80,
                             /*bootstrap_seed=*/7, /*law_seed=*/ctx.rng.next_u64())(ctx);
  };
  return s;
}

/// Preheated transient-budget constraints: the budget is recomputed every
/// frame from a transient_power_headroom horizon while the device cools.
soc::ThermalGpuConstraintParams preheated_transient_gpu_params() {
  soc::ThermalGpuConstraintParams p;
  p.ambient_c = 35.0;
  p.limits.t_max_skin_c = 40.0;
  p.limits.t_max_junction_c = 75.0;
  p.horizon_s = 240.0;
  p.budget_interval_s = 1.0 / 30.0;
  p.initial_temperature_c = {48.0, 46.0, 58.0, 45.0, 39.5};
  return p;
}

/// Thermal constraints calibrated to bind: 40 C ambient + 3 K skin margin
/// puts the steady-state budget (~1.7 W) below the platform's top
/// configurations (~2.9 W).
soc::ThermalConstraintParams binding_thermal_params() {
  soc::ThermalConstraintParams p;
  p.limits.t_max_junction_c = 55.0;
  p.limits.t_max_skin_c = 43.0;
  p.ambient_c = 40.0;
  p.horizon_s = 0.0;  // steady-state max_sustainable_power budget
  return p;
}

/// A DRM scenario whose controller pins the maximum configuration — under a
/// binding budget every decision must be clamped.
Scenario performance_scenario(const std::string& id, const std::string& app, std::uint64_t seed) {
  Scenario s = governor_scenario(id, app, seed);
  s.make_controller = [](ScenarioContext& ctx) {
    return ControllerInstance{std::make_unique<PerformanceGovernor>(ctx.platform.space()),
                              nullptr};
  };
  return s;
}

TEST(ThreadPool, RunsAllIndexedTasks) {
  common::ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.run_indexed(100, [&](std::size_t i) { hits[i] = static_cast<int>(i) + 1; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], i + 1);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  common::ThreadPool pool(3);
  std::vector<int> items;
  for (int i = 0; i < 64; ++i) items.push_back(i);
  const auto out = pool.parallel_map(items, [](int v, std::size_t) { return v * v; });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  common::ThreadPool pool(4);
  try {
    pool.run_indexed(32, [](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");  // lowest failing index, deterministically
  }
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  common::ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, DispatchesHighestIndexFirst) {
  // One worker drains the cursor alone, so it sees the dispatch order.
  common::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(ThreadPool, OverlapHookRunsOnCallerWhileBatchRuns) {
  common::ThreadPool pool(4);
  for (const bool next_batch : {true, false}) {
    std::vector<int> hits(64, 0);
    std::thread::id hook_thread;
    pool.run_indexed(
        hits.size(), [&](std::size_t i) { hits[i] = static_cast<int>(i) + 1; },
        [&] {
          hook_thread = std::this_thread::get_id();
          return next_batch;
        });
    EXPECT_EQ(hook_thread, std::this_thread::get_id());
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPool, OverlapHookExceptionWaitsForEveryStartedTask) {
  common::ThreadPool pool(4);
  constexpr std::size_t kTasks = 24;
  std::atomic<std::size_t> finished{0};
  const auto slow = [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++finished;
  };
  try {
    pool.run_indexed(kTasks, slow, []() -> bool { throw std::runtime_error("hook"); });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "hook");
    EXPECT_EQ(finished.load(), kTasks);  // nothing still running on the caller's frame
  }

  // A task exception wins over the hook's, lowest index first.
  finished = 0;
  try {
    pool.run_indexed(
        kTasks,
        [&](std::size_t i) {
          slow(i);
          if (i == 5 || i == 17) throw std::runtime_error("task " + std::to_string(i));
        },
        []() -> bool { throw std::runtime_error("hook"); });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
    EXPECT_EQ(finished.load(), kTasks);
  }
  // The pool is intact afterwards.
  std::vector<int> hits(8, 0);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 8);
}

#ifdef __linux__
TEST(ThreadPool, DefaultSizeFollowsAffinityMask) {
  // A pool built on a thread restricted to one CPU gets one worker: the
  // default size counts the CPUs the process may run on, not the machine's.
  std::size_t size = 0;
  int rc = -1;
  std::thread pinned([&] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &mask)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    rc = sched_setaffinity(0, sizeof(one), &one);
    if (rc != 0) return;
    common::ThreadPool pool(0);
    size = pool.size();
    pool.run_indexed(4, [](std::size_t) {});
  });
  pinned.join();
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(size, 1u);
}
#endif

TEST(Experiment, EmptyBatchYieldsEmptyResults) {
  ExperimentEngine engine(ExperimentOptions{2});
  EXPECT_TRUE(engine.run_any({}).empty());
}

TEST(Experiment, ParallelMatchesSerialBitwise) {
  const auto batch = mixed_batch();
  ASSERT_GE(batch.size(), 8u);

  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  const auto rs = serial.run_any(batch);
  const auto rp = parallel.run_any(batch);

  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id(), rp[i].id());
    // Bitwise-identical aggregates: the doubles must match exactly, not
    // within a tolerance — scenarios own every byte of mutable state.
    const RunResult& s = rs[i].as<RunResult>();
    const RunResult& p = rp[i].as<RunResult>();
    EXPECT_EQ(s.energy_ratio(), p.energy_ratio());
    EXPECT_EQ(s.total_energy_j(), p.total_energy_j());
    EXPECT_EQ(s.total_time_s(), p.total_time_s());
    ASSERT_EQ(s.records.size(), p.records.size());
    for (std::size_t k = 0; k < s.records.size(); ++k) {
      EXPECT_EQ(s.records[k].energy_j, p.records[k].energy_j);
      EXPECT_EQ(s.records[k].applied, p.records[k].applied);
      EXPECT_EQ(s.records[k].oracle, p.records[k].oracle);
    }
  }
}

TEST(Experiment, RepeatedParallelRunsAreIdentical) {
  const auto batch = mixed_batch();
  ExperimentEngine engine(ExperimentOptions{4});
  const auto r1 = engine.run_any(batch);
  const auto r2 = engine.run_any(batch);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    EXPECT_EQ(r1[i].metric("energy_ratio"), r2[i].metric("energy_ratio"));
}

TEST(Experiment, ResultsOrderedByScenarioId) {
  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any({governor_scenario("z", "SHA", 1),
                                   governor_scenario("a", "FFT", 2),
                                   governor_scenario("m", "Qsort", 3)});
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].id(), "a");
  EXPECT_EQ(res[1].id(), "m");
  EXPECT_EQ(res[2].id(), "z");
}

TEST(Experiment, ThrowingFactoryPropagates) {
  auto batch = mixed_batch();
  Scenario bad = governor_scenario("bad", "SHA", 9);
  bad.make_controller = [](ScenarioContext&) -> ControllerInstance {
    throw std::runtime_error("factory exploded");
  };
  batch.insert(batch.begin() + 2, std::move(bad));
  ExperimentEngine engine(ExperimentOptions{4});
  EXPECT_THROW(engine.run_any(batch), std::runtime_error);
}

TEST(Experiment, WarmupRunsBeforeRecordedTrace) {
  // A counting controller sees warmup + trace steps but the result only
  // records the trace.
  struct CountingController : DrmController {
    std::shared_ptr<std::atomic<int>> steps;
    explicit CountingController(std::shared_ptr<std::atomic<int>> s) : steps(std::move(s)) {}
    std::string name() const override { return "counting"; }
    soc::SocConfig step(const soc::SnippetResult&, const soc::SocConfig& executed) override {
      ++*steps;
      return executed;
    }
  };
  auto steps = std::make_shared<std::atomic<int>>(0);
  Scenario s = governor_scenario("warm", "SHA", 4);
  common::Rng warm_rng(77);
  s.warmup =
      workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("FFT"), 5, warm_rng);
  s.make_controller = [steps](ScenarioContext&) {
    return ControllerInstance{std::make_unique<CountingController>(steps), nullptr};
  };
  ExperimentEngine engine(ExperimentOptions{1});
  const auto res = engine.run_any({s});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].as<RunResult>().records.size(), 10u);
  EXPECT_EQ(steps->load(), 15);  // 5 warmup + 10 recorded
}

TEST(Experiment, OnCompleteSeesLiveController) {
  Scenario s = governor_scenario("hook", "SHA", 4);
  auto name = std::make_shared<std::string>();
  s.on_complete = [name](DrmController& ctl, const RunResult& run) {
    *name = ctl.name();
    EXPECT_EQ(run.records.size(), 10u);
  };
  ExperimentEngine engine(ExperimentOptions{2});
  (void)engine.run_any({s});
  EXPECT_EQ(*name, "ondemand");
}

TEST(Experiment, PoolMapIsDeterministicAcrossPoolSizes) {
  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 32; ++i) seeds.push_back(i);
  const auto draw = [](std::uint64_t seed, std::size_t) {
    common::Rng rng(seed);
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += rng.uniform();
    return acc;
  };
  EXPECT_EQ(serial.pool().parallel_map(seeds, draw), parallel.pool().parallel_map(seeds, draw));
}

TEST(Experiment, MixedDomainParallelMatchesSerialBitwise) {
  // DRM + GPU-ENMPC + thermally-constrained DRM in one batch: the
  // cross-domain engine must give bitwise-identical results regardless of
  // pool size (every scenario owns its platform and Rng stream).
  std::vector<AnyScenario> batch;
  batch.emplace_back(governor_scenario("mixed/drm/0", "SHA", 31));
  batch.emplace_back(governor_scenario("mixed/drm/1", "Kmeans", 32));
  batch.emplace_back(gpu_enmpc_scenario("mixed/gpu/0", 41));
  batch.emplace_back(gpu_enmpc_scenario("mixed/gpu/1", 42));
  batch.emplace_back(
      ThermalDrmScenario{performance_scenario("mixed/thermal/0", "Kmeans", 51),
                         binding_thermal_params()});
  batch.emplace_back(ThermalDrmScenario{governor_scenario("mixed/thermal/1", "FFT", 52),
                                        binding_thermal_params()});

  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  const auto rs = serial.run_any(batch);
  const auto rp = parallel.run_any(batch);

  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id(), rp[i].id());
    ASSERT_EQ(rs[i].metrics().size(), rp[i].metrics().size());
    for (std::size_t k = 0; k < rs[i].metrics().size(); ++k) {
      EXPECT_EQ(rs[i].metrics()[k].first, rp[i].metrics()[k].first);
      // Bitwise: doubles must match exactly, not within a tolerance.
      EXPECT_EQ(rs[i].metrics()[k].second, rp[i].metrics()[k].second)
          << rs[i].id() << " metric " << rs[i].metrics()[k].first;
    }
  }

  // Domain payloads round-trip: per-record / per-frame state, not just
  // aggregates.
  const auto& gpu_s = rs[2].as<GpuRunResult>();
  const auto& gpu_p = rp[2].as<GpuRunResult>();
  ASSERT_EQ(gpu_s.configs.size(), gpu_p.configs.size());
  for (std::size_t k = 0; k < gpu_s.configs.size(); ++k) {
    EXPECT_EQ(gpu_s.configs[k], gpu_p.configs[k]);
    EXPECT_EQ(gpu_s.frame_times_s[k], gpu_p.frame_times_s[k]);
  }
  const auto& th_s = rs[4].as<ThermalRunResult>();
  const auto& th_p = rp[4].as<ThermalRunResult>();
  EXPECT_EQ(th_s.clamped_snippets, th_p.clamped_snippets);
  ASSERT_EQ(th_s.run.records.size(), th_p.run.records.size());
  for (std::size_t k = 0; k < th_s.run.records.size(); ++k) {
    EXPECT_EQ(th_s.run.records[k].applied, th_p.run.records[k].applied);
    EXPECT_EQ(th_s.run.records[k].energy_j, th_p.run.records[k].energy_j);
  }
}

TEST(Experiment, BindingThermalBudgetChangesAppliedConfigs) {
  // The same scenario with and without the thermal adapter: a binding
  // budget must clamp decisions and change what actually executes.
  const Scenario free = performance_scenario("thermal", "Kmeans", 9);
  const ThermalDrmScenario constrained{free, binding_thermal_params()};

  ExperimentEngine engine(ExperimentOptions{2});
  const auto results = engine.run_any({AnyScenario(free), [&] {
                                         ThermalDrmScenario c = constrained;
                                         c.base.id = "thermal-budget";
                                         return AnyScenario(std::move(c));
                                       }()});
  ASSERT_EQ(results.size(), 2u);
  const RunResult& unconstrained = results[0].as<RunResult>();
  const ThermalRunResult& budgeted = results[1].as<ThermalRunResult>();

  EXPECT_GT(budgeted.clamped_snippets, 0u);
  EXPECT_EQ(budgeted.clamped_snippets, budgeted.run.records.size());  // pinned-max controller
  ASSERT_EQ(unconstrained.records.size(), budgeted.run.records.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < unconstrained.records.size(); ++i) {
    if (!(unconstrained.records[i].applied == budgeted.run.records[i].applied)) ++differing;
  }
  EXPECT_GT(differing, 0u);
  EXPECT_GT(budgeted.final_budget_w, 0.0);
  // The clamped run draws less power than the pinned-max run.
  EXPECT_LT(budgeted.run.total_energy_j() / budgeted.run.total_time_s(),
            unconstrained.total_energy_j() / unconstrained.total_time_s());
}

TEST(Experiment, RunAnyRejectsBadBatches) {
  ExperimentEngine engine(ExperimentOptions{2});
  {
    // Empty id.
    EXPECT_THROW(engine.run_any({governor_scenario("", "SHA", 1)}), std::invalid_argument);
  }
  {
    // Duplicate ids across domains.
    std::vector<AnyScenario> batch;
    batch.emplace_back(governor_scenario("dup", "SHA", 1));
    batch.emplace_back(gpu_enmpc_scenario("dup", 2));
    EXPECT_THROW(engine.run_any(batch), std::invalid_argument);
  }
  {
    // Default-constructed scenario is not runnable.
    EXPECT_THROW(engine.run_any({AnyScenario()}), std::invalid_argument);
  }
  {
    // A DRM scenario without a controller factory.
    Scenario s = governor_scenario("s", "SHA", 1);
    s.make_controller = nullptr;
    EXPECT_THROW(engine.run_any({s}), std::invalid_argument);
  }
}

TEST(Experiment, CustomClosureScenarioRunsOnEngine) {
  AnyScenario custom("custom/sum", [] {
    double acc = 0.0;
    common::Rng rng(7);
    for (int i = 0; i < 100; ++i) acc += rng.uniform();
    return AnyResult("custom/sum", acc, Metrics{{"sum", acc}});
  });
  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any({custom});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].holds<double>());
  EXPECT_EQ(res[0].as<double>(), res[0].metric("sum"));
  EXPECT_FALSE(res[0].has_metric("missing"));
  EXPECT_THROW(res[0].metric("missing"), std::invalid_argument);
  EXPECT_THROW(res[0].as<int>(), std::logic_error);
}

// ---- Streaming result path --------------------------------------------------

/// Cheap custom-closure scenario for streaming-shape tests: a deterministic
/// pseudo-metric from the id hash, no platform or Oracle behind it.
AnyScenario cheap_scenario(const std::string& id) {
  return AnyScenario(id, [id] {
    common::Rng rng(std::hash<std::string>{}(id));
    double acc = 0.0;
    for (int i = 0; i < 50; ++i) acc += rng.uniform();
    return AnyResult(id, acc, Metrics{{"acc", acc}});
  });
}

TEST(Experiment, StreamingDeliversShardsInIdOrderAcrossThreads) {
  // Ids arrive scrambled within each shard; the sink must see every shard
  // id-sorted, on the calling thread, identically for 1 and N workers.
  const std::vector<std::string> ids{"s/07", "s/02", "s/11", "s/00", "s/05", "s/09",
                                     "s/01", "s/10", "s/03", "s/08", "s/04", "s/06"};
  const std::size_t shard = 5;  // shards of 5, 5, 2
  const auto delivered_with = [&](std::size_t threads) {
    ExperimentEngine engine(ExperimentOptions{threads});
    std::size_t cursor = 0;
    std::vector<std::string> delivered;
    const std::size_t ran = engine.run_any_streaming(
        [&]() -> std::optional<AnyScenario> {
          if (cursor >= ids.size()) return std::nullopt;
          return cheap_scenario(ids[cursor++]);
        },
        [&](AnyResult&& r) { delivered.push_back(r.id()); }, StreamOptions{shard});
    EXPECT_EQ(ran, ids.size());
    return delivered;
  };
  const auto serial = delivered_with(1);
  ASSERT_EQ(serial.size(), ids.size());
  for (std::size_t base = 0; base < ids.size(); base += shard) {
    const std::size_t end = std::min(base + shard, ids.size());
    // Within a shard: sorted.  Across shards: generator order (no barrier on
    // the whole population, so no global sort).
    for (std::size_t i = base + 1; i < end; ++i) EXPECT_LT(serial[i - 1], serial[i]);
  }
  EXPECT_EQ(delivered_with(4), serial);
}

TEST(Experiment, StreamingMatchesVectorRunAnyBitwise) {
  // Same scenarios through the sharded generator path and the one-shot
  // vector path: per-scenario results must agree bitwise (sharding regroups
  // delivery, it never changes what a scenario computes).
  std::vector<AnyScenario> batch;
  for (int i = 0; i < 7; ++i)
    batch.emplace_back(governor_scenario("b/" + std::to_string(i), "SHA", 40 + i));
  ExperimentEngine engine(ExperimentOptions{4});
  const auto vec = engine.run_any(batch);

  std::map<std::string, double> streamed;
  std::size_t cursor = 0;
  engine.run_any_streaming(
      [&]() -> std::optional<AnyScenario> {
        if (cursor >= batch.size()) return std::nullopt;
        return batch[cursor++];
      },
      [&](AnyResult&& r) { streamed[r.id()] = r.metric("total_energy_j"); },
      StreamOptions{3});
  ASSERT_EQ(streamed.size(), vec.size());
  for (const AnyResult& r : vec) EXPECT_EQ(streamed.at(r.id()), r.metric("total_energy_j"));
}

TEST(Experiment, StreamingSinkExceptionPropagatesAndStops) {
  ExperimentEngine engine(ExperimentOptions{2});
  std::size_t cursor = 0;
  std::size_t delivered = 0;
  EXPECT_THROW(engine.run_any_streaming(
                   [&]() -> std::optional<AnyScenario> {
                     return cheap_scenario("x/" + std::to_string(cursor++));
                   },
                   [&](AnyResult&&) {
                     if (++delivered == 4) throw std::runtime_error("sink full");
                   },
                   StreamOptions{2}),
               std::runtime_error);
  EXPECT_EQ(delivered, 4u);   // nothing delivered past the throw
  EXPECT_LE(cursor, 4u + 2u);  // the infinite generator stopped with the shard

  // A throwing scenario: the lowest-index exception of the failing shard
  // propagates after the shard drains, exactly as in run_any.
  std::size_t i = 0;
  EXPECT_THROW(engine.run_any_streaming(
                   [&]() -> std::optional<AnyScenario> {
                     if (i >= 6) return std::nullopt;
                     const std::string id = "t/" + std::to_string(i++);
                     if (id == "t/4")
                       return AnyScenario(id, []() -> AnyResult {
                         throw std::runtime_error("scenario exploded");
                       });
                     return cheap_scenario(id);
                   },
                   [](AnyResult&&) {}, StreamOptions{3}),
               std::runtime_error);
}

TEST(Experiment, StreamingRejectsBadInputs) {
  ExperimentEngine engine(ExperimentOptions{2});
  const auto none = []() -> std::optional<AnyScenario> { return std::nullopt; };
  const auto drop = [](AnyResult&&) {};
  EXPECT_THROW(engine.run_any_streaming(nullptr, drop), std::invalid_argument);
  EXPECT_THROW(engine.run_any_streaming(none, nullptr), std::invalid_argument);
  EXPECT_THROW(engine.run_any_streaming(none, drop, StreamOptions{0}), std::invalid_argument);
  EXPECT_EQ(engine.run_any_streaming(none, drop), 0u);  // empty stream is fine

  // Duplicate ids are caught across shard boundaries, not just within one.
  std::size_t n = 0;
  EXPECT_THROW(engine.run_any_streaming(
                   [&]() -> std::optional<AnyScenario> {
                     if (n >= 5) return std::nullopt;
                     ++n;
                     return cheap_scenario(n == 5 ? "dup/0" : "dup/" + std::to_string(n - 1));
                   },
                   drop, StreamOptions{2}),
               std::invalid_argument);
}

TEST(Experiment, StreamingHoldsAtMostOneShardOfResults) {
  // 5000-scenario memory-bound smoke: each result payload carries a live
  // token, and the high-water of simultaneously-alive tokens must stay
  // bounded by one shard — the engine never accumulates the population.
  struct Live {
    static std::atomic<int>& count() {
      static std::atomic<int> n{0};
      return n;
    }
    static std::atomic<int>& high() {
      static std::atomic<int> h{0};
      return h;
    }
    static void enter() {
      const int now = ++count();
      int peak = high().load();
      while (now > peak && !high().compare_exchange_weak(peak, now)) {
      }
    }
    Live() { enter(); }
    Live(const Live&) { enter(); }
    Live(Live&&) { enter(); }
    Live& operator=(const Live&) = default;
    Live& operator=(Live&&) = default;
    ~Live() { --count(); }
  };
  Live::count() = 0;
  Live::high() = 0;

  constexpr std::size_t kDevices = 5000;
  constexpr std::size_t kShard = 64;
  ExperimentEngine engine(ExperimentOptions{4});
  std::size_t cursor = 0;
  double sum = 0.0;
  std::size_t delivered = 0;
  const std::size_t ran = engine.run_any_streaming(
      [&]() -> std::optional<AnyScenario> {
        if (cursor >= kDevices) return std::nullopt;
        const std::size_t i = cursor++;
        const std::string id = "mem/" + std::to_string(i);
        return AnyScenario(id, [id, i] {
          return AnyResult(std::in_place_type<Live>, id, Metrics{{"v", static_cast<double>(i)}});
        });
      },
      [&](AnyResult&& r) {
        ++delivered;
        sum += r.metric("v");
      },
      StreamOptions{kShard});

  EXPECT_EQ(ran, kDevices);
  EXPECT_EQ(delivered, kDevices);
  EXPECT_EQ(sum, static_cast<double>(kDevices) * (kDevices - 1) / 2.0);
  EXPECT_EQ(Live::count().load(), 0);  // every result was destroyed
  // Each payload is built in place, so a result holds one token from its
  // construction on: one shard in flight (+ small slack); far below the
  // population.
  EXPECT_LE(Live::high().load(), static_cast<int>(kShard) + 2);
}

TEST(Experiment, StreamingGeneratorErrorDuringOverlapDeliversCurrentShard) {
  // The next shard is generated while the current one runs.  A generator
  // that throws — or yields a duplicate id — there must still let the
  // running shard finish and reach the sink in full; nothing of the shard
  // being generated runs or is delivered; the error then propagates.
  constexpr std::size_t kShard = 3;
  constexpr std::size_t kGood = 7;  // shards {0,1,2} {3,4,5}; the error lands in {6,7,8}
  for (const bool duplicate : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "duplicate " << duplicate << ", threads " << threads);
      ExperimentEngine engine(ExperimentOptions{threads});
      std::atomic<std::size_t> ran{0};
      std::size_t cursor = 0;
      std::vector<std::string> delivered;
      const auto generator = [&]() -> std::optional<AnyScenario> {
        const std::size_t i = cursor++;
        if (i == kGood) {
          if (!duplicate) throw std::runtime_error("generator failed");
          return cheap_scenario("g/0");  // already ran in shard 0
        }
        const std::string id = "g/" + std::to_string(i);
        return AnyScenario(id, [id, &ran] {
          ++ran;
          return AnyResult(id, 0, Metrics{});
        });
      };
      const auto sink = [&](AnyResult&& r) { delivered.push_back(r.id()); };
      if (duplicate) {
        EXPECT_THROW(engine.run_any_streaming(generator, sink, StreamOptions{kShard}),
                     std::invalid_argument);
      } else {
        EXPECT_THROW(engine.run_any_streaming(generator, sink, StreamOptions{kShard}),
                     std::runtime_error);
      }
      EXPECT_EQ(cursor, kGood + 1);  // the generator stopped at the error
      EXPECT_EQ(ran.load(), 2 * kShard);
      EXPECT_EQ(delivered,
                (std::vector<std::string>{"g/0", "g/1", "g/2", "g/3", "g/4", "g/5"}));
    }
  }
}

TEST(Experiment, StreamingOneWorkerEngineCrossesManyShards) {
  // One worker runs every scenario while the caller generates the next
  // shard: the streamed results must equal the 4-worker stream bitwise,
  // across six shard boundaries and a short last shard.
  std::vector<AnyScenario> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(cheap_scenario("one/" + std::to_string(i)));
  const auto stream_with = [&](std::size_t threads) {
    ExperimentEngine engine(ExperimentOptions{threads});
    std::size_t cursor = 0;
    std::vector<std::pair<std::string, double>> out;
    const std::size_t ran = engine.run_any_streaming(
        [&]() -> std::optional<AnyScenario> {
          if (cursor >= batch.size()) return std::nullopt;
          return batch[cursor++];
        },
        [&](AnyResult&& r) { out.emplace_back(r.id(), r.metric("acc")); }, StreamOptions{3});
    EXPECT_EQ(ran, batch.size());
    EXPECT_EQ(cursor, batch.size());
    return out;
  };
  const auto serial = stream_with(1);
  ASSERT_EQ(serial.size(), batch.size());
  EXPECT_EQ(stream_with(4), serial);
  ExperimentEngine engine(ExperimentOptions{1});
  const auto whole = engine.run_any(batch);
  std::map<std::string, double> by_id;
  for (const auto& [id, acc] : serial) by_id[id] = acc;
  for (const AnyResult& r : whole) EXPECT_EQ(by_id.at(r.id()), r.metric("acc"));
}

TEST(Experiment, SharedOfflinePolicyArmsMatchPerScenarioTrainingBitwise) {
  // online_il_factory(policy, off, cfg) gives each scenario a copy of one
  // offline policy — here restored from a store blob — and must run every
  // arm exactly as the form that trains inside each scenario.  A small
  // buffer makes the controllers retrain, so the restored optimizer state
  // is exercised too.
  const auto off = small_offline_data(/*thermal_aware=*/false);
  OnlineIlConfig cfg;
  cfg.buffer_capacity = 8;
  const std::string dir = ::testing::TempDir() + "oal-store-shared-policy";
  std::filesystem::remove_all(dir);
  ArtifactStore store(dir);
  (void)offline_policy(*off, soc::ConfigSpace(), cfg.policy_config(), 5, &store);
  const auto restored = offline_policy(*off, soc::ConfigSpace(), cfg.policy_config(), 5, &store);
  ASSERT_EQ(restored->train_time_s(), 0.0);  // restored, not trained

  const auto batch = [&](const ControllerFactory& factory) {
    std::vector<AnyScenario> out;
    for (int i = 0; i < 3; ++i) {
      Scenario s;
      s.id = "il/" + std::to_string(i);
      common::Rng trace_rng(700 + i);
      s.trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Kmeans"), 30,
                                                trace_rng);
      s.make_controller = factory;
      s.extra_metrics = [](const DrmController& ctl, const RunResult&) {
        const auto& il = dynamic_cast<const OnlineIlController&>(ctl);
        return Metrics{{"final_loss", il.policy_train_loss()}};
      };
      out.emplace_back(std::move(s));
    }
    return out;
  };
  ExperimentEngine engine(ExperimentOptions{4});
  const auto trained = engine.run_any(batch(online_il_factory(off, /*train_seed=*/5, cfg)));
  const auto shared = engine.run_any(batch(online_il_factory(restored, off, cfg)));
  ASSERT_EQ(trained.size(), shared.size());
  for (std::size_t i = 0; i < trained.size(); ++i) {
    // The final loss is the last retrain's: it reads the optimizer state.
    EXPECT_EQ(trained[i].metric("final_loss"), shared[i].metric("final_loss"));
    const RunResult& t = trained[i].as<RunResult>();
    const RunResult& s = shared[i].as<RunResult>();
    EXPECT_EQ(t.total_energy_j(), s.total_energy_j());
    ASSERT_EQ(t.records.size(), s.records.size());
    for (std::size_t k = 0; k < t.records.size(); ++k) {
      EXPECT_EQ(t.records[k].energy_j, s.records[k].energy_j);
      EXPECT_EQ(t.records[k].applied, s.records[k].applied);
    }
  }

  // A policy trained with another config is refused, not silently adapted.
  OnlineIlConfig other = cfg;
  other.policy.learning_rate *= 2.0;
  EXPECT_THROW((void)online_il_factory(restored, off, other), std::invalid_argument);
  other = cfg;
  other.thermal_aware = true;
  EXPECT_THROW((void)online_il_factory(restored, off, other), std::invalid_argument);
}

TEST(Experiment, ThermalAwareMixedDomainParallelMatchesSerialBitwise) {
  // Thermal-aware arms add two new determinism surfaces: the telemetry
  // channel feeding controller state, and the ThermalGpuScenario's
  // GpuRunner hooks.  Both must stay bitwise identical across pool sizes.
  std::vector<AnyScenario> batch;
  const auto off = small_offline_data(/*thermal_aware=*/true);
  for (int i = 0; i < 2; ++i) {
    Scenario s;
    s.id = "aware/il/" + std::to_string(i);
    common::Rng trace_rng(600 + i);
    s.trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Kmeans"), 12,
                                              trace_rng);
    OnlineIlConfig cfg;
    cfg.thermal_aware = true;
    s.make_controller = online_il_factory(off, /*train_seed=*/5 + i, cfg);
    batch.emplace_back(ThermalDrmScenario{std::move(s), binding_thermal_params()});
  }
  {
    // Thermal-aware tabular Q: the headroom bucket folded into the
    // discretized RL state must be deterministic across pool sizes too.
    Scenario s;
    s.id = "aware/qlearn/0";
    common::Rng trace_rng(650);
    s.trace = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("MotionEst"), 12,
                                              trace_rng);
    s.make_controller = [](ScenarioContext& ctx) {
      return ControllerInstance{
          std::make_unique<QLearningController>(ctx.platform.space(), ml::QLearnConfig{},
                                                RlRewardScale{}, /*thermal_aware=*/true),
          nullptr};
    };
    batch.emplace_back(ThermalDrmScenario{std::move(s), binding_thermal_params()});
  }
  for (int i = 0; i < 2; ++i) {
    GpuScenario g = gpu_enmpc_scenario("aware/gpu/" + std::to_string(i), 70 + i);
    soc::ThermalGpuConstraintParams thermal;
    thermal.ambient_c = 35.0;
    thermal.limits.t_max_skin_c = 39.0;
    thermal.limits.t_max_junction_c = 75.0;
    thermal.horizon_s = 0.0;
    batch.emplace_back(ThermalGpuScenario{std::move(g), thermal});
  }

  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  const auto rs = serial.run_any(batch);
  const auto rp = parallel.run_any(batch);
  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id(), rp[i].id());
    ASSERT_EQ(rs[i].metrics().size(), rp[i].metrics().size());
    for (std::size_t k = 0; k < rs[i].metrics().size(); ++k) {
      EXPECT_EQ(rs[i].metrics()[k].first, rp[i].metrics()[k].first);
      EXPECT_EQ(rs[i].metrics()[k].second, rp[i].metrics()[k].second)
          << rs[i].id() << " metric " << rs[i].metrics()[k].first;
    }
  }
  // GPU thermal payloads round-trip per frame (results are id-sorted, so the
  // "aware/gpu/..." scenarios come first).
  ASSERT_EQ(rs[0].id(), "aware/gpu/0");
  const auto& gpu_s = rs[0].as<ThermalGpuRunResult>();
  const auto& gpu_p = rp[0].as<ThermalGpuRunResult>();
  EXPECT_EQ(gpu_s.clamped_frames, gpu_p.clamped_frames);
  ASSERT_EQ(gpu_s.run.configs.size(), gpu_p.run.configs.size());
  for (std::size_t k = 0; k < gpu_s.run.configs.size(); ++k)
    EXPECT_EQ(gpu_s.run.configs[k], gpu_p.run.configs[k]);
}

TEST(Experiment, PreheatedTransientGpuParallelMatchesSerialBitwise) {
  // The transient-budget arms add moving-budget telemetry (recomputed every
  // frame) feeding the budget-constrained NMPC — a new determinism surface
  // that must stay bitwise identical across pool sizes.
  std::vector<AnyScenario> batch;
  batch.emplace_back(ThermalGpuScenario{gpu_enmpc_scenario("transient/blind", 90, false),
                                        preheated_transient_gpu_params()});
  batch.emplace_back(ThermalGpuScenario{gpu_enmpc_scenario("transient/aware", 90, true),
                                        preheated_transient_gpu_params()});

  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  const auto rs = serial.run_any(batch);
  const auto rp = parallel.run_any(batch);
  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id(), rp[i].id());
    ASSERT_EQ(rs[i].metrics().size(), rp[i].metrics().size());
    for (std::size_t k = 0; k < rs[i].metrics().size(); ++k)
      EXPECT_EQ(rs[i].metrics()[k].second, rp[i].metrics()[k].second)
          << rs[i].id() << " metric " << rs[i].metrics()[k].first;
    const auto& s = rs[i].as<ThermalGpuRunResult>();
    const auto& p = rp[i].as<ThermalGpuRunResult>();
    EXPECT_EQ(s.clamped_frames, p.clamped_frames);
    ASSERT_EQ(s.run.configs.size(), p.run.configs.size());
    for (std::size_t k = 0; k < s.run.configs.size(); ++k)
      EXPECT_EQ(s.run.configs[k], p.run.configs[k]);
  }
}

TEST(Experiment, BudgetConstrainedNmpcAvoidsArbiterCorrections) {
  // Under a binding-but-feasible budget the aware controller's proposals
  // must pass the arbiter untouched (no corrections), while the blind twin
  // is clamped; an infeasible budget must land both on the throttle floor
  // with the run completing.
  soc::ThermalGpuConstraintParams binding;
  binding.ambient_c = 35.0;
  binding.limits.t_max_skin_c = 37.0;
  binding.limits.t_max_junction_c = 75.0;
  binding.horizon_s = 0.0;

  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any(
      {ThermalGpuScenario{gpu_enmpc_scenario("budget/aware", 44, true), binding},
       ThermalGpuScenario{gpu_enmpc_scenario("budget/blind", 44, false), binding}});
  ASSERT_EQ(res.size(), 2u);
  const auto& aware = res[0].as<ThermalGpuRunResult>();
  const auto& blind = res[1].as<ThermalGpuRunResult>();
  ASSERT_EQ(res[0].id(), "budget/aware");
  EXPECT_GT(blind.clamped_frames, 0u);
  EXPECT_LT(aware.clamped_frames, blind.clamped_frames / 4);

  // Infeasible budget: skin limit essentially at ambient.
  soc::ThermalGpuConstraintParams brutal = binding;
  brutal.limits.t_max_skin_c = binding.ambient_c + 0.02;
  const auto floor_res = engine.run_any(
      {ThermalGpuScenario{gpu_enmpc_scenario("floor/aware", 44, true), brutal}});
  const auto& floor_run = floor_res[0].as<ThermalGpuRunResult>();
  EXPECT_EQ(floor_run.run.frames, 150u);  // the run completes
  std::size_t at_floor = 0;
  for (const gpu::GpuConfig& c : floor_run.run.configs)
    if (c == gpu::GpuConfig{0, 1}) ++at_floor;
  // Everything after the initial config's arbitration sits on the floor.
  EXPECT_GE(at_floor + 1, floor_run.run.configs.size());
}

TEST(Experiment, GpuTelemetryChannelDoesNotPerturbBlindControllers) {
  // A ThermalGpuScenario now binds a telemetry source; a thermally-blind
  // GPU controller must produce byte-identical records to the PR 4 wiring
  // (arbiter + observer only, no telemetry).
  const GpuScenario s = gpu_enmpc_scenario("gpu-blind-check", 71, false);
  soc::ThermalGpuConstraintParams params;
  params.ambient_c = 35.0;
  params.limits.t_max_skin_c = 39.0;
  params.limits.t_max_junction_c = 75.0;
  params.horizon_s = 0.0;

  ExperimentEngine engine(ExperimentOptions{1});
  const auto via_engine = engine.run_any({ThermalGpuScenario{s, params}});
  ASSERT_EQ(via_engine.size(), 1u);
  const GpuRunResult& with_telemetry = via_engine[0].as<ThermalGpuRunResult>().run;

  // Manual replication of the pre-telemetry wiring.
  gpu::GpuPlatform platform(s.platform, s.platform_noise_seed);
  common::Rng rng(s.seed);
  GpuScenarioContext ctx{s, platform, rng};
  GpuControllerInstance instance = s.make_controller(ctx);
  soc::ThermalGpuAdapter adapter(platform, 1.0 / s.fps_target, params);
  GpuRunnerHooks hooks;
  hooks.arbiter = [&adapter](const gpu::FrameDescriptor& f, const gpu::GpuConfig& proposed) {
    return adapter.arbitrate(f, proposed);
  };
  hooks.observer = [&adapter](const gpu::FrameDescriptor& f, const gpu::GpuConfig& applied,
                              const gpu::FrameResult& r) { adapter.observe(f, applied, r); };
  GpuRunner runner(platform, s.fps_target, std::move(hooks));
  const GpuRunResult without_telemetry = runner.run(s.trace, *instance.controller, s.initial);

  ASSERT_EQ(with_telemetry.configs.size(), without_telemetry.configs.size());
  for (std::size_t i = 0; i < with_telemetry.configs.size(); ++i)
    EXPECT_EQ(with_telemetry.configs[i], without_telemetry.configs[i]);
  EXPECT_EQ(with_telemetry.gpu_energy_j, without_telemetry.gpu_energy_j);
  EXPECT_EQ(with_telemetry.pkg_dram_energy_j, without_telemetry.pkg_dram_energy_j);
  EXPECT_EQ(with_telemetry.deadline_misses, without_telemetry.deadline_misses);
}

TEST(Experiment, ThermalGpuBindingBudgetClampsFrames) {
  GpuScenario g = gpu_enmpc_scenario("gpu-budget", 44);
  soc::ThermalGpuConstraintParams thermal;
  thermal.ambient_c = 35.0;
  thermal.limits.t_max_skin_c = 36.0;  // brutally tight: must clamp
  thermal.limits.t_max_junction_c = 60.0;
  thermal.horizon_s = 0.0;
  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any({ThermalGpuScenario{std::move(g), thermal}});
  ASSERT_EQ(res.size(), 1u);
  const auto& run = res[0].as<ThermalGpuRunResult>();
  EXPECT_GT(run.clamped_frames, 0u);
  EXPECT_GT(run.final_budget_w, 0.0);
  EXPECT_EQ(res[0].metric("clamped_frames"), static_cast<double>(run.clamped_frames));
}

TEST(Experiment, TelemetryChannelDoesNotPerturbBlindControllers) {
  // A ThermalDrmScenario now binds a telemetry source; a thermally-blind
  // controller must produce byte-identical records to the PR 2 wiring
  // (arbiter + observer only, no telemetry).
  const Scenario s = governor_scenario("blind-check", "Kmeans", 77);
  const soc::ThermalConstraintParams params = binding_thermal_params();

  ExperimentEngine engine(ExperimentOptions{1});
  const auto via_engine = engine.run_any({ThermalDrmScenario{s, params}});
  ASSERT_EQ(via_engine.size(), 1u);
  const RunResult& with_telemetry = via_engine[0].as<ThermalRunResult>().run;

  // Manual replication of the pre-telemetry wiring.
  soc::BigLittlePlatform platform(s.platform, s.platform_noise_seed);
  common::Rng rng(s.seed);
  ScenarioContext ctx{s, platform, rng};
  ControllerInstance instance = s.make_controller(ctx);
  soc::ThermalSocAdapter adapter(platform, params);
  RunnerOptions opts;
  opts.objective = s.objective;
  opts.arbiter = [&adapter](const soc::SnippetDescriptor& snip, const soc::SocConfig& proposed) {
    return adapter.arbitrate(snip, proposed);
  };
  opts.observer = [&adapter](const soc::SnippetDescriptor& snip, const soc::SocConfig& applied,
                             const soc::SnippetResult& r) { adapter.observe(snip, applied, r); };
  DrmRunner runner(platform, opts);
  const RunResult without_telemetry = runner.run(s.trace, *instance.controller, s.initial);

  ASSERT_EQ(with_telemetry.records.size(), without_telemetry.records.size());
  for (std::size_t i = 0; i < with_telemetry.records.size(); ++i) {
    EXPECT_EQ(with_telemetry.records[i].applied, without_telemetry.records[i].applied);
    EXPECT_EQ(with_telemetry.records[i].energy_j, without_telemetry.records[i].energy_j);
    EXPECT_EQ(with_telemetry.records[i].exec_time_s, without_telemetry.records[i].exec_time_s);
  }
}

TEST(ScenarioRegistry, PrefixMatchesOnSegmentBoundaries) {
  // Regression: a raw string prefix "fig1" used to also select "fig10/...".
  ScenarioRegistry reg;
  reg.add("fig1", [] { return governor_scenario("", "SHA", 1); });
  reg.add("fig1/a", [] { return governor_scenario("", "FFT", 2); });
  reg.add("fig1/b", [] { return governor_scenario("", "Qsort", 3); });
  reg.add("fig10/a", [] { return governor_scenario("", "Kmeans", 4); });

  const auto names = reg.names("fig1");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "fig1");
  EXPECT_EQ(names[1], "fig1/a");
  EXPECT_EQ(names[2], "fig1/b");

  // A trailing-slash prefix selects the family only (not the bare name).
  const auto slash_names = reg.names("fig1/");
  ASSERT_EQ(slash_names.size(), 2u);
  EXPECT_EQ(slash_names[0], "fig1/a");

  EXPECT_EQ(reg.names("fig10").size(), 1u);
  EXPECT_EQ(reg.names().size(), 4u);         // empty prefix: everything
  EXPECT_TRUE(reg.names("fig").empty());     // partial segment matches nothing
}

TEST(ScenarioRegistry, BuildsByPrefixInNameOrder) {
  ScenarioRegistry reg;
  reg.add("b/2", [] { return governor_scenario("", "SHA", 1); });
  reg.add("a/1", [] { return governor_scenario("", "FFT", 2); });
  reg.add("b/1", [] { return governor_scenario("", "Qsort", 3); });
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.names("a/1"), (std::vector<std::string>{"a/1"}));
  EXPECT_TRUE(reg.names("c/1").empty());

  const auto all = reg.names();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "a/1");

  EXPECT_EQ(reg.names("b/"), (std::vector<std::string>{"b/1", "b/2"}));
  EXPECT_EQ(reg.build("b/1").id(), "b/1");  // builder id overridden by registry name

  EXPECT_THROW(reg.build("missing"), std::invalid_argument);
  EXPECT_THROW(reg.add("a/1", [] { return Scenario{}; }), std::invalid_argument);
  EXPECT_THROW(reg.add("", [] { return Scenario{}; }), std::invalid_argument);
  EXPECT_THROW(reg.add("null", nullptr), std::invalid_argument);
}

/// A small NoC traffic point for cross-domain registry batches.
NocScenario noc_scenario(std::uint64_t seed) {
  NocScenario s;
  s.traffic = noc::TrafficMatrix::uniform(64, 0.008);
  s.sim.seed = seed;
  return s;
}

/// A four-domain catalog: DRM governors, GPU-ENMPC, NoC points, and
/// thermally-constrained DRM (one builder returns a plain Scenario, which
/// converts implicitly).
ScenarioRegistry cross_domain_registry() {
  ScenarioRegistry reg;
  reg.add("drm/gov/0", [] { return governor_scenario("", "SHA", 31); });
  reg.add("drm/gov/1", [] { return AnyScenario(governor_scenario("", "Kmeans", 32)); });
  reg.add("gpu/enmpc/0", [] { return AnyScenario(gpu_enmpc_scenario("", 41)); });
  reg.add("noc/uniform/0", [] { return AnyScenario(noc_scenario(7)); });
  reg.add("noc/uniform/1", [] { return AnyScenario(noc_scenario(8)); });
  reg.add("thermal/perf", [] {
    return AnyScenario(ThermalDrmScenario{performance_scenario("", "Kmeans", 51),
                                          binding_thermal_params()});
  });
  return reg;
}

TEST(ScenarioRegistry, CrossDomainBatchParallelMatchesSerialBitwise) {
  // A registry-built mixed batch (DRM + GPU-ENMPC + NoC + thermal) must obey
  // the engine's bitwise-determinism contract like a hand-built one.
  const ScenarioRegistry reg = cross_domain_registry();
  std::vector<AnyScenario> batch;
  for (const std::string& name : reg.names()) batch.push_back(reg.build(name));
  ASSERT_EQ(batch.size(), 6u);

  ExperimentEngine serial(ExperimentOptions{1});
  ExperimentEngine parallel(ExperimentOptions{4});
  const auto rs = serial.run_any(batch);
  const auto rp = parallel.run_any(batch);
  ASSERT_EQ(rs.size(), batch.size());
  ASSERT_EQ(rp.size(), batch.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id(), rp[i].id());
    ASSERT_EQ(rs[i].metrics().size(), rp[i].metrics().size());
    for (std::size_t k = 0; k < rs[i].metrics().size(); ++k) {
      EXPECT_EQ(rs[i].metrics()[k].first, rp[i].metrics()[k].first);
      // Bitwise: doubles must match exactly, not within a tolerance.
      EXPECT_EQ(rs[i].metrics()[k].second, rp[i].metrics()[k].second)
          << rs[i].id() << " metric " << rs[i].metrics()[k].first;
    }
  }
  // Registry names became both scenario and result ids, in name order.
  EXPECT_EQ(rs[0].id(), "drm/gov/0");
  EXPECT_EQ(rs[2].id(), "gpu/enmpc/0");
  EXPECT_TRUE(rs[2].holds<GpuRunResult>());
  EXPECT_TRUE(rs[3].holds<NocRunResult>());
  EXPECT_TRUE(rs[5].holds<ThermalRunResult>());
}

TEST(ScenarioRegistry, PrefixSelectionAcrossFamilies) {
  const ScenarioRegistry reg = cross_domain_registry();
  // Family prefixes cut the catalog on segment boundaries regardless of the
  // domain behind each name.
  EXPECT_EQ(reg.names("noc").size(), 2u);
  EXPECT_EQ(reg.names("noc/uniform").size(), 2u);
  EXPECT_EQ(reg.names("noc/uniform/0").size(), 1u);
  EXPECT_TRUE(reg.names("noc/uni").empty());  // partial segment matches nothing
  EXPECT_EQ(reg.names("drm").size(), 2u);
  EXPECT_EQ(reg.names().size(), 6u);

  EXPECT_EQ(reg.names("gpu"), std::vector<std::string>{"gpu/enmpc/0"});

  std::vector<AnyScenario> batch;
  for (const std::string& name : reg.names("noc")) batch.push_back(reg.build(name));
  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any(batch);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].id(), "noc/uniform/0");
  EXPECT_GT(res[0].metric("sim_avg_latency_cycles"), 0.0);
}

TEST(ScenarioRegistry, RegistryBatchRunsOnEngine) {
  ScenarioRegistry reg;
  reg.add("run/0", [] { return governor_scenario("", "SHA", 21); });
  reg.add("run/1", [] { return governor_scenario("", "FFT", 22); });
  reg.add("run/2", [] { return AnyScenario(noc_scenario(1)); });
  EXPECT_EQ(reg.build("run/2").id(), "run/2");
  std::vector<AnyScenario> batch;
  for (const std::string& name : reg.names("run/")) batch.push_back(reg.build(name));
  ExperimentEngine engine(ExperimentOptions{2});
  const auto res = engine.run_any(batch);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].id(), "run/0");
  EXPECT_GT(res[0].as<RunResult>().energy_ratio(), 0.0);
  EXPECT_GT(res[1].as<RunResult>().energy_ratio(), 0.0);
  EXPECT_TRUE(res[2].holds<NocRunResult>());
}

}  // namespace
}  // namespace oal::core
