// Reproduces Table II: energy (normalized w.r.t. the Oracle) of an IL policy
// trained ONLY on MiBench applications, evaluated on applications from
// MiBench, Cortex and PARSEC.  Also prints Table I (the collected counters)
// for completeness.
//
// Paper values: ~1.00-1.01 on MiBench, 1.09-1.76 on Cortex, 1.47-1.86 on
// PARSEC — the offline policy fails to generalize across suites.
//
// The nine per-app evaluations are ScenarioRegistry arms
// ("table2/<benchmark>") executed in parallel; the offline policy is
// trained once — after the --list fast path — and shared read-only across
// scenarios (OfflineIlController never mutates it).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/driver.h"
#include "common/fnv.h"
#include "common/table.h"
#include "core/artifact_store.h"
#include "core/online_il.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

/// Shared read-only artifacts, filled after the --list fast path (builders
/// run at select() time, strictly later).
struct SharedArtifacts {
  std::shared_ptr<OracleCache> cache;
  std::shared_ptr<const IlPolicy> policy;
};

}  // namespace

int main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  bench::BenchDriver driver("table2_offline_il");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  struct Row {
    const char* name;
    const char* paper;
  };
  const Row rows[] = {{"BML", "1.00"},       {"Dijkstra", "1.01"}, {"FFT", "1.00"},
                      {"Qsort", "1.00"},     {"MotionEst", "1.13"}, {"Spectral", "1.09"},
                      {"Kmeans", "1.76"},    {"Blkschls-2T", "1.86"}, {"Blkschls-4T", "1.47"}};

  auto shared = std::make_shared<SharedArtifacts>();
  ScenarioRegistry registry;
  for (const Row& row : rows) {
    const auto& app = workloads::CpuBenchmarks::by_name(row.name);
    registry.add(std::string("table2/") + row.name, [shared, app] {
      Scenario s;
      common::Rng trace_rng(300 + app.app_id);
      s.trace = workloads::CpuBenchmarks::trace(app, 80, trace_rng);
      s.oracle_cache = shared->cache;
      s.make_controller = offline_il_factory(shared->policy);
      return s;
    });
  }
  if (driver.listing()) return driver.list(registry);

  std::puts("=== Table I: data collected in each snippet ===");
  common::Table t1({"Counter", "Counter"});
  t1.add_row({"Instructions Retired", "Noncache External Memory Requests"});
  t1.add_row({"CPU Cycles Total", "Little Cluster Utilization"});
  t1.add_row({"Branch Miss Prediction Per Core", "Big Cluster Utilization"});
  t1.add_row({"Level 2 Cache Misses Total", "Chip Power Consumption"});
  t1.add_row({"Data Memory Access", "Avg Runnable Threads (OS)"});
  t1.print(std::cout);

  // Offline phase: Oracle construction + IL training on MiBench only.  The
  // engine pool shards the cold Oracle searches; --store persists them (and
  // the trained policy) so a warm invocation recomputes neither.
  soc::BigLittlePlatform plat;
  ExperimentEngine engine(driver.engine_options());
  shared->cache = std::make_shared<OracleCache>(driver.store(), &engine.pool());
  const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
  // Content address of the trained policy: platform + objective + collect
  // geometry/seed + policy config.  Training continues the collect rng, so
  // the collect seed pins the training stream too.
  const IlPolicyConfig policy_cfg;
  std::uint64_t il_key = plat.fingerprint();
  common::fnv1a_mix(il_key, static_cast<std::uint64_t>(Objective::kEnergy));
  for (std::uint64_t v : {std::uint64_t{40}, std::uint64_t{6}, std::uint64_t{7}})
    common::fnv1a_mix(il_key, v);
  common::fnv1a_mix(il_key, il_policy_config_hash(policy_cfg));
  shared->policy = std::make_shared<const IlPolicy>(get_or_compute(
      driver.store().get(), "table2-il-policy", il_key, IlPolicy(plat.space(), policy_cfg),
      [&](IlPolicy& policy) {
        common::Rng rng(7);
        const auto off =
            collect_offline_data(plat, mibench, Objective::kEnergy,
                                 /*snippets_per_app=*/40, /*configs_per_snippet=*/6, rng,
                                 shared->cache.get(), /*thermal_aware=*/false, &engine.pool());
        policy.train_offline(off.policy, rng);
      }));
  driver.json().write_metrics(driver.bench_name(), "table2/offline_policy_training",
                              {{"train_time_s", shared->policy->train_time_s()},
                               {"final_loss", shared->policy->last_train_loss()}});
  std::printf("\nOffline IL policy: %zu params, %zu bytes (paper budget: <20 KB)\n",
              shared->policy->num_params(), shared->policy->storage_bytes());
  // Wall-time goes to the JSONL record only: stdout must stay byte-identical
  // across runs (the repo-wide determinism probe diffs two invocations).
  std::printf("Offline training final-epoch loss: %.4f\n",
              shared->policy->last_train_loss());

  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  write_decision_latency(driver, results);
  write_oracle_stats(
      driver, *shared->cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());
  const bench::ResultIndex index(results);

  std::puts("\n=== Table II: normalized energy of the offline-only IL policy ===");
  common::Table t2({"Suite", "Benchmark", "Normalized energy (this repro)", "Paper"});
  for (const Row& row : rows) {
    const AnyResult* r = index.find(std::string("table2/") + row.name);
    if (!r) continue;  // arm deselected by prefix
    const auto& app = workloads::CpuBenchmarks::by_name(row.name);
    t2.add_row({workloads::suite_name(app.suite), row.name,
                common::Table::fmt(r->as<RunResult>().energy_ratio(), 2), row.paper});
  }
  t2.print(std::cout);
  std::puts("\nShape check: MiBench ~1.0 (training suite); Cortex and PARSEC");
  std::puts("substantially above 1.0 (distribution shift) — matching the paper's");
  std::puts("argument that offline IL policies do not generalize to unseen suites.");
  return 0;
}
