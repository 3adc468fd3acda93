// Reproduces Fig. 4: energy consumption (normalized w.r.t. the Oracle) of
// the online-IL approach and the RL approach across all 16 benchmarks.
// Both are trained offline on MiBench; the MiBench bars therefore evaluate
// the offline policies ("Offline" region of the figure), while the Cortex
// and PARSEC bars are measured during online adaptation over an application
// sequence ("Online" region).
//
// Paper: online-IL stays ~1.0x everywhere; RL reaches up to 1.4x.
//
// All 20 arms (9 offline apps x {IL, RL} + 2 online sequences) are named
// scenarios in a ScenarioRegistry selected through the shared bench driver
// and executed as one parallel batch.  The offline dataset, the IL policy
// (frozen in the offline arms, copied and adapted by the online arm), and
// the pretrained RL table are shared read-only across arms and
// are computed (or restored from --store) only when at least one arm
// actually runs (--list stays free), through a context the builders
// dereference lazily.
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
#include "core/rl_controller.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

/// Revision of the tabular-Q warmup behind the "fig4-pretrained-q" artifact,
/// mixed into its store key.  Bump it whenever a change alters the
/// pretrained table's bits, so a warm store recomputes the table instead of
/// restoring the old one.  Revision 2: the warmup runs on its own platform.
constexpr std::uint64_t kRlWarmupRevision = 2;

/// Shared read-only artifacts, filled after the --list fast path (builders
/// run at select() time, strictly later).
struct SharedArtifacts {
  std::shared_ptr<OracleCache> cache;
  std::shared_ptr<const OfflineData> off;
  std::shared_ptr<const IlPolicy> policy;
  std::shared_ptr<const QLearningController> pretrained_rl;
};

}  // namespace

int main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  bench::BenchDriver driver("fig4_energy");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  soc::BigLittlePlatform plat;  // outlives every batch (policies point at its space)
  const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
  auto shared = std::make_shared<SharedArtifacts>();
  const auto make_rl = [shared](ScenarioContext&) {
    return ControllerInstance{std::make_unique<QLearningController>(*shared->pretrained_rl),
                              shared->pretrained_rl};
  };

  ScenarioRegistry registry;

  // ---- Offline region: each MiBench app under the frozen offline policies --
  for (const auto& app : mibench) {
    common::Rng trace_rng(300 + app.app_id);
    const auto trace = workloads::CpuBenchmarks::trace(app, 80, trace_rng);
    registry.add("fig4/offline/" + app.name + "/il", [shared, trace] {
      Scenario s;
      s.trace = trace;
      s.oracle_cache = shared->cache;
      s.make_controller = offline_il_factory(shared->policy);
      return s;
    });
    registry.add("fig4/offline/" + app.name + "/rl", [shared, trace, make_rl] {
      Scenario s;
      s.trace = trace;
      s.oracle_cache = shared->cache;
      s.make_controller = make_rl;
      return s;
    });
  }

  // ---- Online region: Cortex + PARSEC sequence with adaptation -------------
  std::vector<workloads::AppSpec> online_apps;
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kCortex))
    online_apps.push_back(a);
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kParsec))
    online_apps.push_back(a);
  common::Rng seq_rng(99);
  const auto seq = workloads::CpuBenchmarks::sequence(online_apps, seq_rng);

  registry.add("fig4/online/il", [shared, seq] {
    Scenario s;
    s.trace = seq;
    s.oracle_cache = shared->cache;
    s.make_controller = online_il_factory(shared->policy, shared->off, OnlineIlConfig{});
    // Training-cost telemetry for the JSONL record (regression-gated final
    // loss; wall-time is reported but never gated — it is machine-dependent).
    s.extra_metrics = [](const DrmController& ctl, const RunResult&) {
      const auto& il = dynamic_cast<const OnlineIlController&>(ctl);
      return Metrics{{"train_time_s", il.policy_train_time_s()},
                     {"final_loss", il.policy_train_loss()}};
    };
    return s;
  });

  auto rl_states = std::make_shared<std::size_t>(0);
  auto rl_bytes = std::make_shared<std::size_t>(0);
  registry.add("fig4/online/rl", [shared, seq, make_rl, rl_states, rl_bytes] {
    Scenario s;
    s.trace = seq;
    s.oracle_cache = shared->cache;
    s.make_controller = make_rl;
    s.on_complete = [rl_states, rl_bytes](DrmController& ctl, const RunResult&) {
      auto& rl = dynamic_cast<QLearningController&>(ctl);
      *rl_states = rl.table_states();
      *rl_bytes = rl.storage_bytes();
    };
    return s;
  });

  if (driver.listing()) return driver.list(registry);

  // ---- Heavy shared setup, gated on what the prefixes actually selected ----
  const auto selected = driver.selection(registry);
  bool need_il = false, need_rl = false;
  for (const std::string& name : selected) {
    need_il |= name.size() >= 3 && name.compare(name.size() - 3, 3, "/il") == 0;
    need_rl |= name.size() >= 3 && name.compare(name.size() - 3, 3, "/rl") == 0;
  }
  ExperimentEngine engine;
  shared->cache = std::make_shared<OracleCache>(driver.store(), &engine.pool());
  // Blob keys: each artifact below is a pure function of the platform, the
  // objective, and its generation seeds/geometry, so that is exactly what
  // its content address hashes.  Each compute runs on a fresh platform of
  // its own, so no artifact depends on which others were computed.
  if (need_il) {
    // Every trace above is evaluated by both an IL and an RL arm; the shared
    // cache runs the exhaustive Oracle search once per snippet, not per arm.
    // The dataset's address is shared with fig3's identical collect.
    shared->off = offline_dataset(plat.params(), mibench, Objective::kEnergy,
                                  /*snippets_per_app=*/40, /*configs_per_snippet=*/6,
                                  /*collect_seed=*/7, /*thermal_aware=*/false,
                                  shared->cache.get(), driver.store().get(), &engine.pool());

    // One offline policy: every Offline-IL scenario runs it frozen, and the
    // online arm adapts a copy.  The artifact carries the final loss, so the
    // record below is identical whether the policy was restored or trained
    // (train_time_s is wall-clock, 0 after a restore).
    shared->policy = offline_policy(*shared->off, plat.space(), IlPolicyConfig{}, /*train_seed=*/5,
                                    driver.store().get());
    driver.json().write_metrics(driver.bench_name(), "fig4/offline_policy_training",
                                {{"train_time_s", shared->policy->train_time_s()},
                                 {"final_loss", shared->policy->last_train_loss()}});
  }
  if (need_rl) {
    // The tabular-Q baseline pre-trains through the MiBench sequence once
    // (as in the paper); every RL scenario then starts from a copy of the
    // trained table rather than redoing the identical warmup.
    std::uint64_t rl_key = plat.fingerprint();
    common::fnv1a_mix(rl_key, std::uint64_t{11});  // pretraining-sequence seed
    common::fnv1a_mix(rl_key, kRlWarmupRevision);
    shared->pretrained_rl = std::make_shared<const QLearningController>(get_or_compute(
        driver.store().get(), "fig4-pretrained-q", rl_key, QLearningController(plat.space()),
        [&](QLearningController& rl) {
          soc::BigLittlePlatform warmup_plat;
          common::Rng pre_rng(11);
          RunnerOptions fast;
          fast.compute_oracle = false;
          DrmRunner pre_runner(warmup_plat, fast);
          (void)pre_runner.run(workloads::CpuBenchmarks::sequence(mibench, pre_rng), rl,
                               {4, 4, 8, 10});
        }));
  }

  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  write_decision_latency(driver, results);
  write_oracle_stats(
      driver, *shared->cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());
  const bench::ResultIndex index(results);
  const auto run_of = [&](const std::string& id) -> const RunResult* {
    const AnyResult* r = index.find(id);
    return r ? &r->as<RunResult>() : nullptr;
  };

  // "Steady" restricts online apps to their second half, after the paper's
  // few-second adaptation transient (Fig. 3) has passed.
  common::Table t({"Region", "Benchmark", "Online-IL E/Oracle", "IL steady", "RL E/Oracle"});
  for (const auto& app : mibench) {
    const RunResult* res_il = run_of("fig4/offline/" + app.name + "/il");
    const RunResult* res_rl = run_of("fig4/offline/" + app.name + "/rl");
    if (!res_il || !res_rl) continue;  // arm deselected by prefix
    t.add_row({"Offline", app.name, common::Table::fmt(res_il->energy_ratio(), 2),
               common::Table::fmt(res_il->energy_ratio(), 2),
               common::Table::fmt(res_rl->energy_ratio(), 2)});
  }

  const RunResult* res_seq_il = run_of("fig4/online/il");
  const RunResult* res_seq_rl = run_of("fig4/online/rl");
  if (res_seq_il && res_seq_rl) {
    for (const auto& app : online_apps) {
      // Steady-state ratio: second half of this app's snippets.
      double e = 0.0, oe = 0.0;
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < res_seq_il->records.size(); ++i)
        if (res_seq_il->records[i].app_id == app.app_id) idx.push_back(i);
      for (std::size_t k = idx.size() / 2; k < idx.size(); ++k) {
        e += res_seq_il->records[idx[k]].energy_j;
        oe += res_seq_il->records[idx[k]].oracle_energy_j;
      }
      t.add_row({"Online", app.name,
                 common::Table::fmt(res_seq_il->energy_ratio_for_app(app.app_id), 2),
                 common::Table::fmt(e / oe, 2),
                 common::Table::fmt(res_seq_rl->energy_ratio_for_app(app.app_id), 2)});
    }
  }

  std::puts("=== Fig. 4: energy consumption w.r.t. Oracle (IL vs RL) ===");
  t.print(std::cout);
  if (res_seq_il && res_seq_rl) {
    std::printf("\nSequence totals: online-IL %.3fx, RL %.3fx (paper: IL ~1.0x, RL up to 1.4x)\n",
                res_seq_il->energy_ratio(), res_seq_rl->energy_ratio());
    std::printf("Tabular-RL storage grew to %zu states (%zu bytes) — the storage argument\n",
                *rl_states, *rl_bytes);
    std::puts("against table-based RL in Section IV-A2.");
  }
  return 0;
}
