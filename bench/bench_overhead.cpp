// Decision-latency microbenchmarks (google-benchmark): quantifies the
// runtime-overhead argument running through the whole paper — Oracles are
// too expensive to ship, policies and explicit laws are cheap enough for
// governors/firmware.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tests/alloc_guard.h"

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/artifact_store.h"
#include "core/decision_timer.h"
#include "core/domain.h"
#include "core/experiment.h"
#include "core/governors.h"
#include "core/nmpc.h"
#include "core/online_il.h"
#include "core/oracle.h"
#include "core/rl_controller.h"
#include "core/runner.h"
#include "soc/thermal_platform.h"
#include "thermal/power_budget.h"
#include "workloads/cpu_benchmarks.h"
#include "workloads/gpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

struct CpuFixture {
  CpuFixture() {
    common::Rng rng(7);
    const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
    data = collect_offline_data(plat, mibench, Objective::kEnergy, 10, 4, rng);
    policy = std::make_unique<IlPolicy>(plat.space());
    policy->train_offline(data.policy, rng);
    models = std::make_unique<OnlineSocModels>(plat.space());
    models->bootstrap(data.model_samples);
    common::Rng trng(3);
    snippet = workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name("Kmeans"), 1,
                                              trng)[0];
    result = plat.execute(snippet, config);
  }
  soc::BigLittlePlatform plat;
  OfflineData data;
  std::unique_ptr<IlPolicy> policy;
  std::unique_ptr<OnlineSocModels> models;
  soc::SnippetDescriptor snippet;
  soc::SocConfig config{2, 2, 8, 10};
  soc::SnippetResult result;
};

CpuFixture& cpu_fixture() {
  static CpuFixture f;
  return f;
}

}  // namespace

static void BM_OracleExhaustiveSearch(benchmark::State& state) {
  auto& f = cpu_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle_config(f.plat, f.snippet, Objective::kEnergy));
  }
}
BENCHMARK(BM_OracleExhaustiveSearch)->Unit(benchmark::kMicrosecond);

// ---- Oracle-search floor: sharded search, memoization, persistence ---------
// The PR-7 levers against the exhaustive-search cost, each isolated: the
// pooled search (same 4940-config sweep, sharded across workers), a warm
// in-memory cache hit (the common case inside one process), a cold miss
// (cache bookkeeping + full search), and reloading memoized searches from
// the on-disk store (the cross-process warm path CI exercises).

static void BM_OracleSearchPooled(benchmark::State& state) {
  auto& f = cpu_fixture();
  static common::ThreadPool pool;  // sized to the hardware, shared across iterations
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle_search(f.plat, f.snippet, Objective::kEnergy, &pool));
  }
}
BENCHMARK(BM_OracleSearchPooled)->Unit(benchmark::kMicrosecond);

static void BM_OracleCacheWarmHit(benchmark::State& state) {
  auto& f = cpu_fixture();
  OracleCache cache;
  (void)cache.config(f.plat, f.snippet, Objective::kEnergy);  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.config(f.plat, f.snippet, Objective::kEnergy));
  }
}
BENCHMARK(BM_OracleCacheWarmHit)->Unit(benchmark::kNanosecond);

static void BM_OracleCacheColdSearch(benchmark::State& state) {
  auto& f = cpu_fixture();
  for (auto _ : state) {
    OracleCache cache;
    benchmark::DoNotOptimize(cache.config(f.plat, f.snippet, Objective::kEnergy));
  }
}
BENCHMARK(BM_OracleCacheColdSearch)->Unit(benchmark::kMicrosecond);

namespace {

/// A store of fleet size in a temp directory: about as many entries as the
/// perfbench fleet_warm store holds (13 400-13 500), keyed by
/// OracleCache::key_of over MiBench snippets on the default platform, and
/// the snippets themselves.  Loading and hitting never read an entry's
/// value, so each holds a placeholder configuration and cost instead of
/// costing 13 440 real sweeps.
struct FleetStore {
  static constexpr std::size_t kEntries = 13440;

  FleetStore() : dir(std::filesystem::temp_directory_path() / "oal-bench-overhead-store") {
    std::filesystem::remove_all(dir);
    const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
    common::Rng rng(3);
    std::vector<OracleStoreEntry> entries;
    for (std::size_t app = 0; snippets.size() < kEntries; ++app) {
      for (const auto& s : workloads::CpuBenchmarks::trace(mibench[app % mibench.size()], 240,
                                                           rng)) {
        const OracleCache::Key key = OracleCache::key_of(plat, s, Objective::kEnergy);
        OracleStoreEntry e;
        e.platform_fingerprint = key.platform_fingerprint;
        std::copy(std::begin(key.fields), std::end(key.fields), std::begin(e.fields));
        e.max_threads = key.max_threads;
        e.objective = key.objective;
        e.config[0] = 1;
        e.cost = static_cast<double>(snippets.size());
        entries.push_back(e);
        snippets.push_back(s);
      }
    }
    store = std::make_shared<ArtifactStore>(dir.string());
    if (store->merge_oracle_entries(entries) != kEntries) {
      std::fprintf(stderr, "bench_overhead: fleet-size store keys collided\n");
      std::exit(1);
    }
  }
  ~FleetStore() { std::filesystem::remove_all(dir); }

  std::filesystem::path dir;
  soc::BigLittlePlatform plat;
  std::vector<soc::SnippetDescriptor> snippets;
  std::shared_ptr<ArtifactStore> store;
};

FleetStore& fleet_store() {
  static FleetStore s;
  return s;
}

}  // namespace

// Reading a fleet-size store back: one sized read, checksum and decode per
// bucket file.
static void BM_ArtifactStoreWarmLoad(benchmark::State& state) {
  const FleetStore& fs = fleet_store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.store->load_oracle_entries());
  }
}
BENCHMARK(BM_ArtifactStoreWarmLoad)->Unit(benchmark::kMicrosecond);

// Warm hits as fleet_warm makes them: 4 threads sharing one cache preloaded
// from a fleet-size store, each walking every stored key from its own
// offset.  Time is wall time per lookup over all 4 threads; CPU is each
// thread's time per lookup, the cost one fleet worker pays.
static void BM_OracleCacheWarmHitContended(benchmark::State& state) {
  static FleetStore& fs = fleet_store();
  static OracleCache cache(fs.store);
  const std::size_t n = fs.snippets.size();
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * n / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.cost(fs.plat, fs.snippets[i], Objective::kEnergy));
    i = i + 1 == n ? 0 : i + 1;
  }
}
BENCHMARK(BM_OracleCacheWarmHitContended)->Threads(4)->UseRealTime()->Unit(benchmark::kNanosecond);

// ---- Scheduler: what the engine pays around the work ----------------------
// A fork-join round trip over one no-op index per worker (dispatch, wake-up,
// completion, join), and a streaming sweep of no-op scenarios in fleet-shaped
// shards of 64 (generation, dispatch, shard barriers, id-ordered delivery),
// reported per scenario.  Both are wall time: the caller mostly waits.

static void BM_ForkJoinRoundTrip(benchmark::State& state) {
  static common::ThreadPool pool;  // default size, shared across iterations
  for (auto _ : state) pool.run_indexed(pool.size(), [](std::size_t) {});
}
BENCHMARK(BM_ForkJoinRoundTrip)->UseRealTime()->Unit(benchmark::kMicrosecond);

static void BM_StreamingOverheadPerScenario(benchmark::State& state) {
  constexpr std::size_t kScenarios = 4096;
  static ExperimentEngine engine;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kScenarios; ++i) ids.push_back("noop/" + std::to_string(i));
  for (auto _ : state) {
    std::size_t next = 0;
    const std::size_t ran = engine.run_any_streaming(
        [&]() -> std::optional<AnyScenario> {
          if (next == kScenarios) return std::nullopt;
          const std::string& id = ids[next++];
          return AnyScenario(id, [&id] { return AnyResult(id, 0, Metrics{}); });
        },
        [](AnyResult&& r) { benchmark::DoNotOptimize(r); }, StreamOptions{64});
    benchmark::DoNotOptimize(ran);
  }
  state.counters["per_scenario"] = benchmark::Counter(
      static_cast<double>(kScenarios),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StreamingOverheadPerScenario)->UseRealTime()->Unit(benchmark::kMillisecond);

// The scratch decide the controllers run.
static void BM_IlPolicyDecision(benchmark::State& state) {
  auto& f = cpu_fixture();
  const FeatureExtractor fx(f.plat.space());
  const common::Vec s = fx.policy_features(f.result.counters, f.config);
  IlPolicy::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.policy->decide(s, scratch));
  }
}
BENCHMARK(BM_IlPolicyDecision)->Unit(benchmark::kMicrosecond);

static void BM_OnlineIlFullStep(benchmark::State& state) {
  auto& f = cpu_fixture();
  OnlineIlController ctl(f.plat.space(), *f.policy, *f.models);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.step(f.result, f.config));
  }
}
BENCHMARK(BM_OnlineIlFullStep)->Unit(benchmark::kMicrosecond);

// One online-IL policy update as OnlineIlController runs it at the default
// settings: 15 epochs of 16-row minibatches over a full 1600-sample
// aggregate, on the IL policy network (12 -> 24 -> 24 -> heads {4, 5, 13,
// 19}).  This is the amortized cost behind each retrain in the fig3 loop.
static void BM_IlRetrain1600x15(benchmark::State& state) {
  auto& f = cpu_fixture();
  IlPolicy policy = *f.policy;  // private copy: each iteration keeps training it
  common::Rng rng(13);
  PolicyDataset ds;
  for (std::size_t i = 0; i < 1600; ++i) {
    const std::size_t j = i % f.data.policy.states.size();
    common::Vec s = f.data.policy.states[j];
    for (double& v : s) v *= rng.uniform(0.9, 1.1);
    ds.states.push_back(std::move(s));
    ds.labels.push_back(f.data.policy.labels[j]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.train_incremental(ds, 15, rng));
  }
}
BENCHMARK(BM_IlRetrain1600x15)->Unit(benchmark::kMillisecond);

// One decision's runtime-Oracle scoring as OnlineIlController::step runs it
// between the model update and exploration: every candidate (the radius-1
// neighborhood, both cluster sweeps and a policy suggestion: 376 configs at
// the fixture's interior operating point) scored once from the decision's
// basis tables, argmin included.
static void BM_OnlineIlCandidateScoring(benchmark::State& state) {
  auto& f = cpu_fixture();
  // The decision's tables come from its model update, on a copy so the
  // shared fixture's models stay as bootstrapped.
  OnlineSocModels models = *f.models;
  DecisionBasis decision(f.plat.space());
  models.update(ModelSample{workload_features(f.result.counters, f.config), f.config,
                            f.result.exec_time_s, f.result.counters.instructions_retired,
                            f.result.avg_power_w},
                decision);
  std::vector<soc::SocConfig> candidates = f.plat.space().neighborhood(f.config, 1, 4);
  const std::vector<soc::SocConfig> sweeps = f.plat.space().cluster_sweeps(f.config);
  candidates.insert(candidates.end(), sweeps.begin(), sweeps.end());
  candidates.push_back(f.config);
  std::vector<DecisionBasis::Score> scores(candidates.size());
  for (auto _ : state) {
    std::size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = decision.score(candidates[i]);
      const double cost = scores[i].log_time + scores[i].log_power;
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    benchmark::DoNotOptimize(best);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_OnlineIlCandidateScoring)->Unit(benchmark::kMicrosecond);

static void BM_NmpcSlowSolve(benchmark::State& state) {
  gpu::GpuPlatform plat;
  GpuOnlineModels models(plat);
  common::Rng rng(7);
  bootstrap_gpu_models(plat, models, 1.0 / 30.0, 200, rng);
  NmpcGpuController nmpc(plat, models);
  GpuWorkloadState w;
  w.work_cycles = 25e6;
  w.mem_bytes = 12e6;
  std::size_t evals = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nmpc.solve_slow(w, {9, 4}, &evals));
  }
}
BENCHMARK(BM_NmpcSlowSolve)->Unit(benchmark::kMicrosecond);

static void BM_ExplicitNmpcLawStep(benchmark::State& state) {
  gpu::GpuPlatform plat;
  GpuOnlineModels models(plat);
  common::Rng rng(7);
  bootstrap_gpu_models(plat, models, 1.0 / 30.0, 200, rng);
  ExplicitNmpcGpuController enmpc(plat, models, {}, 800);
  enmpc.begin_run({9, 4});
  common::Rng trng(3);
  const auto frame =
      workloads::GpuBenchmarks::trace(workloads::GpuBenchmarks::by_name("EpicCitadel"), 1, trng)[0];
  gpu::GpuPlatform sim;
  const auto result = sim.render(frame, {9, 4}, 1.0 / 30.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enmpc.step(result, {9, 4}, i));
    i += 30;  // always hit the slow tick (law evaluation)
  }
}
BENCHMARK(BM_ExplicitNmpcLawStep)->Unit(benchmark::kMicrosecond);

// ---- Per-controller decide(): latency table + heap discipline --------------
// Custom main: before handing over to google-benchmark, measure each
// controller's steady-state decide() with the same DecisionTimer the runners
// use, and assert the loop performs ZERO heap allocations (alloc_guard.h
// defines the counting global operator new for this binary).  This is the
// human-readable companion to the per-bench `decision_latency` JSONL records;
// the BM_ sections above are unchanged.

namespace {

/// Times `step` over a steady-state loop after warming every lazily-sized
/// scratch buffer, adds a p50/p99/max row, and exits nonzero if the loop
/// touched the heap.  The warmup is generous (not two calls) because some
/// controllers have rng-dependent branches — e.g. the DQN's epsilon-greedy
/// explore/greedy split — and every branch must size its buffers before the
/// probe starts.  `iters` stays below DecisionTimer::kCapacity, so the
/// percentiles are exact.
template <typename Step>
void decide_row(common::Table& table, const char* name, Step&& step, std::size_t iters = 2000) {
  constexpr std::size_t kWarmup = 64;
  for (std::size_t i = 0; i < kWarmup; ++i) step();
  DecisionTimer timer;
  oal::alloc_guard::AllocationProbe probe;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto t0 = timer.start();
    step();
    timer.stop(t0);
  }
  if (probe.delta() != 0) {
    std::fprintf(stderr,
                 "bench_overhead: '%s' made %zu heap allocations over %zu "
                 "steady-state decisions (expected 0)\n",
                 name, probe.delta(), iters);
    std::exit(1);
  }
  const DecisionLatencyStats s = timer.stats();
  table.add_row({name, std::to_string(s.decisions), common::Table::fmt(s.p50_ns, 0),
                 common::Table::fmt(s.p99_ns, 0), common::Table::fmt(s.max_ns, 0)});
}

/// decide_row for one budget refresh, named "thermal budget refresh (<kind>,
/// <passes> passes)" with the refresh's PowerBudgeter::probe_passes (the
/// same every call, since the inputs are).
template <typename Refresh>
void budget_row(common::Table& table, const char* kind, const thermal::PowerBudgeter& budgeter,
                Refresh&& refresh, std::size_t iters = 2000) {
  const std::size_t before = budgeter.probe_passes();
  refresh();
  const std::string name = std::string("thermal budget refresh (") + kind + ", " +
                           std::to_string(budgeter.probe_passes() - before) + " passes)";
  decide_row(table, name.c_str(), refresh, iters);
}

void run_decide_section() {
  auto& f = cpu_fixture();
  const FeatureExtractor fx(f.plat.space());
  const common::Vec state = fx.policy_features(f.result.counters, f.config);
  common::Table table({"Controller decide()", "Decisions", "p50 (ns)", "p99 (ns)", "max (ns)"});

  OndemandGovernor ondemand(f.plat.space());
  decide_row(table, "ondemand governor",
             [&] { benchmark::DoNotOptimize(ondemand.step(f.result, f.config)); });
  InteractiveGovernor interactive(f.plat.space());
  decide_row(table, "interactive governor",
             [&] { benchmark::DoNotOptimize(interactive.step(f.result, f.config)); });
  PerformanceGovernor performance(f.plat.space());
  decide_row(table, "performance governor",
             [&] { benchmark::DoNotOptimize(performance.step(f.result, f.config)); });
  PowersaveGovernor powersave;
  decide_row(table, "powersave governor",
             [&] { benchmark::DoNotOptimize(powersave.step(f.result, f.config)); });

  IlPolicy::Scratch scratch;
  decide_row(table, "offline IL policy (scratch)",
             [&] { benchmark::DoNotOptimize(f.policy->decide(state, scratch)); });

  // The online-IL step between retrains: model update, policy decide and the
  // runtime-Oracle candidate scoring.  A buffer longer than the loop keeps
  // the amortized retrain out of the timed distribution.
  OnlineSocModels il_models = *f.models;
  IlPolicy il_policy = *f.policy;
  OnlineIlConfig il_cfg;
  il_cfg.buffer_capacity = 4096;
  OnlineIlController online_il(f.plat.space(), il_policy, il_models, il_cfg);
  decide_row(table, "online IL step (between retrains)",
             [&] { benchmark::DoNotOptimize(online_il.step(f.result, f.config)); });

  QLearningController ql(f.plat.space());
  ql.begin_run(f.config);
  decide_row(table, "RL controller (tabular Q)",
             [&] { benchmark::DoNotOptimize(ql.step(f.result, f.config)); });

  // Training is amortized work, not part of the per-decide path: gate the
  // minibatch and target sync past this loop's horizon so the probe isolates
  // features + forward pass + replay-ring insert.
  ml::DqnConfig dcfg;
  dcfg.min_replay = 1u << 20;
  dcfg.target_sync_period = 1u << 20;
  DqnController dqn(f.plat.space(), dcfg);
  dqn.begin_run(f.config);
  decide_row(table, "RL controller (DQN, no train)",
             [&] { benchmark::DoNotOptimize(dqn.step(f.result, f.config)); });

  // GPU firmware fast path: the per-frame frequency trim between slow ticks.
  gpu::GpuPlatform gplat;
  GpuOnlineModels gmodels(gplat);
  common::Rng grng(7);
  bootstrap_gpu_models(gplat, gmodels, 1.0 / 30.0, 200, grng);
  const NmpcGpuController nmpc(gplat, gmodels);
  GpuWorkloadState w;
  w.work_cycles = 25e6;
  w.mem_bytes = 12e6;
  std::size_t evals = 0;
  decide_row(table, "NMPC fast trim (GPU)",
             [&] { benchmark::DoNotOptimize(nmpc.fast_trim(w, {9, 4}, &evals)); });

  // The *full* per-frame step — RLS refit of both online models through the
  // update scratch, workload EWMA, then the fast trim (fixed off-tick frame
  // index keeps the slow solve out of the timed distribution).  The PR-8
  // zero-alloc contract extended from decide() to the whole step.
  NmpcGpuController nmpc_full(gplat, gmodels);
  nmpc_full.begin_run({9, 4});
  common::Rng ftrng(3);
  const auto gframe = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 1, ftrng)[0];
  gpu::GpuPlatform gsim;
  const auto gresult = gsim.render(gframe, {9, 4}, 1.0 / 30.0);
  decide_row(table, "NMPC full step (refit + trim)",
             [&] { benchmark::DoNotOptimize(nmpc_full.step(gresult, {9, 4}, 1)); });

  // Thermal budget refresh: the work a thermal adapter does when its refresh
  // cadence fires, on the preheated fig5_transient device (GPU-heavy shape).
  // Steady state is the closed-form bisection over the factored fixed point;
  // the transient rows bisect on in-place RC simulations of the horizon.
  auto hot_net = thermal::RcThermalNetwork::mobile_soc(35.0);
  hot_net.set_temperatures({48.0, 46.0, 58.0, 45.0, 39.5});
  soc::ThermalGpuConstraintParams tp;
  tp.limits.t_max_skin_c = 40.0;
  tp.limits.t_max_junction_c = 75.0;
  thermal::PowerBudgeter budgeter(hot_net, tp.leakage, tp.limits);
  const common::Vec shape{0.0, 0.0, 2.4, 1.1, 0.0};
  budget_row(table, "steady", budgeter,
             [&] { benchmark::DoNotOptimize(budgeter.max_sustainable_power(shape)); });
  budget_row(table, "transient h10", budgeter, [&] {
    benchmark::DoNotOptimize(
        budgeter.transient_power_headroom(hot_net.temperatures(), shape, 10.0));
  });
  budget_row(
      table, "transient h240", budgeter,
      [&] {
        benchmark::DoNotOptimize(
            budgeter.transient_power_headroom(hot_net.temperatures(), shape, 240.0));
      },
      200);

  std::puts("=== Steady-state decide(): per-controller latency, zero-alloc asserted ===");
  table.print(std::cout);
  std::puts("(every row verified heap-silent over its timed loop; ns are machine-dependent)\n");
}

}  // namespace

int main(int argc, char** argv) {
  run_decide_section();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
