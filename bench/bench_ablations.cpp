// Ablation studies for the design choices called out in DESIGN.md:
//  A. Online-IL aggregation-buffer size (paper: 100 samples ~ 100% accuracy,
//     <20 KB storage).
//  B. Candidate-set construction (local neighborhood vs + cluster sweeps vs
//     + exploration) — why each ingredient is needed.
//  C. NMPC vs explicit NMPC: identical-task energy and decision overhead.
//  D. Fixed forgetting factors vs STAFF for the Fig. 2 predictor.
//  E. Policy optimizer (the update rule of the IL network).
//
// Every arm is a ScenarioRegistry entry: A, B and E are online-IL DRM
// scenarios, C and D are custom AnyScenario closures that own all their
// state.  The online-IL arms share one MiBench offline dataset, collected
// once on a platform of its own (core::offline_dataset, --store aware) and
// only when a selected arm needs it.  Each distinct IlPolicyConfig among the
// selected arms (Adam, SGD, SGD + momentum) is trained once, in parallel, in
// setup (core::offline_policy, --store aware); each arm adapts a copy of
// its policy.  The default OnlineIlConfig is one arm, "ablate/default",
// which supplies the paper-setting row of tables A (buffer 100), B (full
// candidate set) and E (Adam).  One parallel batch executes whatever the
// driver's prefixes select.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "bench/driver.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/nmpc.h"
#include "core/online_il.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"
#include "workloads/gpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

struct OnlineArmResult {
  double energy_ratio = 0.0;
  double tail_ratio = 0.0;  ///< energy/Oracle over the final quarter
  std::size_t buffer_bytes = 0;
};

/// Shared read-only artifacts, filled after the --list fast path (builders
/// run at select() time, strictly later).
struct SharedArtifacts {
  std::shared_ptr<OracleCache> cache;
  std::shared_ptr<const OfflineData> off;
  /// Offline policies by il_policy_config_hash of the arm's policy_config().
  std::map<std::uint64_t, std::shared_ptr<const IlPolicy>> policies;
};

/// The one arm every table shares: the default OnlineIlConfig.
const std::string kDefaultArm = "ablate/default";

/// Builds the online-IL arm scenario for one OnlineIlConfig: the factory
/// copies the arm's shared offline policy and bootstraps its models, on the
/// worker.
Scenario online_arm_scenario(const OnlineIlConfig& cfg, const SharedArtifacts& shared) {
  Scenario s;
  common::Rng seq_rng(99);
  std::vector<workloads::AppSpec> apps;
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kCortex))
    apps.push_back(a);
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kParsec))
    apps.push_back(a);
  s.trace = workloads::CpuBenchmarks::sequence(apps, seq_rng);
  s.oracle_cache = shared.cache;
  s.make_controller = online_il_factory(
      shared.policies.at(il_policy_config_hash(cfg.policy_config())), shared.off, cfg);
  s.extra_metrics = [](const DrmController& ctl, const RunResult&) {
    const auto& il = dynamic_cast<const OnlineIlController&>(ctl);
    return Metrics{{"train_time_s", il.policy_train_time_s()},
                   {"final_loss", il.policy_train_loss()}};
  };
  return s;
}

OnlineArmResult summarize_arm(const RunResult& res, const OnlineIlConfig& cfg) {
  OnlineArmResult out;
  out.energy_ratio = res.energy_ratio();
  const std::size_t tail = res.records.size() / 4;
  double e = 0.0, oe = 0.0;
  for (std::size_t i = res.records.size() - tail; i < res.records.size(); ++i) {
    e += res.records[i].energy_j;
    oe += res.records[i].oracle_energy_j;
  }
  out.tail_ratio = e / oe;
  // Buffer entry: 12-feature state + 4 labels, 4 bytes each.
  out.buffer_bytes = cfg.buffer_capacity * (12 + 4) * 4;
  return out;
}

/// Section C payload: one workload under implicit and explicit NMPC.
struct NmpcArm {
  GpuRunResult nmpc, enmpc;
};

/// Runs both NMPC flavors on the named workload; everything (platform,
/// runner, traces, models) is constructed inside the closure — the custom
/// AnyScenario determinism discipline.
AnyScenario nmpc_vs_enmpc_arm(const std::string& id, const std::string& workload, double fps) {
  return AnyScenario(id, [id, workload, fps] {
    gpu::GpuPlatform plat;
    GpuRunner runner(plat, fps);
    const gpu::GpuConfig init{9, plat.params().max_slices};
    const auto& spec = workloads::GpuBenchmarks::by_name(workload);
    common::Rng trng(1000 + spec.id);
    const auto trace = workloads::GpuBenchmarks::trace(spec, 1200, trng);

    GpuOnlineModels m1(plat);
    common::Rng b1(7);
    bootstrap_gpu_models(plat, m1, 1.0 / fps, 400, b1);
    NmpcConfig cfg;
    cfg.fps_target = fps;
    NmpcGpuController nmpc(plat, m1, cfg);
    NmpcArm out;
    out.nmpc = runner.run(trace, nmpc, init);

    GpuOnlineModels m2(plat);
    common::Rng b2(7);
    bootstrap_gpu_models(plat, m2, 1.0 / fps, 400, b2);
    ExplicitNmpcGpuController enmpc(plat, m2, cfg, 1500);
    out.enmpc = runner.run(trace, enmpc, init);
    Metrics m{{"nmpc_gpu_energy_j", out.nmpc.gpu_energy_j},
              {"enmpc_gpu_energy_j", out.enmpc.gpu_energy_j},
              {"nmpc_evals", static_cast<double>(out.nmpc.decision_evals)},
              {"enmpc_evals", static_cast<double>(out.enmpc.decision_evals)}};
    return AnyResult(id, std::move(out), std::move(m));
  });
}

/// Section D: MAPE of one forgetting-factor configuration on the Fig. 2
/// staircase schedule.
AnyScenario staff_arm(const std::string& id, const ml::StaffConfig& cfg) {
  return AnyScenario(id, [id, cfg] {
    const double period = 1.0 / 30.0;
    gpu::GpuPlatform plat;
    common::Rng rng(5);
    const auto trace = workloads::GpuBenchmarks::nenamark2(1000, rng);
    StaffFrameTimePredictor pred(plat, cfg);
    GpuWorkloadState w;
    std::vector<double> a, p;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const gpu::GpuConfig c{4 + 4 * static_cast<int>((i / 200) % 4), 2};
      const auto r = plat.render(trace[i], c, period);
      if (i > 50) {
        p.push_back(pred.predict_ms(w, c));
        a.push_back(r.frame_time_s * 1e3);
      }
      pred.update(w, c, r);
      w.observe(r, 2.0 / (1.0 + plat.params().slice_sync_overhead));
    }
    const double mape = common::mape(a, p);
    return AnyResult(id, mape, Metrics{{"mape_pct", mape}});
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  bench::BenchDriver driver("ablations");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  auto shared = std::make_shared<SharedArtifacts>();
  ScenarioRegistry registry;

  // ---- Sections A, B, E: online-IL configuration ablations ------------------
  // Each table row names the arm it reads; the paper-setting row of every
  // table is the one default arm.
  std::map<std::string, OnlineIlConfig> configs;
  const auto add_online_arm = [&](const std::string& id, const OnlineIlConfig& cfg) {
    configs[id] = cfg;
    registry.add(id, [cfg, shared] { return online_arm_scenario(cfg, *shared); });
  };
  add_online_arm(kDefaultArm, OnlineIlConfig{});

  struct BufferRow {
    std::size_t size;
    std::string id;
  };
  const BufferRow buffer_rows[] = {
      {50, "ablate/buffer/50"}, {100, kDefaultArm}, {400, "ablate/buffer/400"}};
  for (const BufferRow& row : buffer_rows) {
    if (row.id == kDefaultArm) continue;
    OnlineIlConfig cfg;
    cfg.buffer_capacity = row.size;
    add_online_arm(row.id, cfg);
  }

  // The full candidate set (sweeps + exploration) is the default config.
  struct CandidateVariant {
    const char* name;
    std::string id;
    bool sweeps;
  };
  const CandidateVariant variants[] = {{"neighborhood only", "ablate/candidates/0", false},
                                       {"+ cluster sweeps", "ablate/candidates/1", true},
                                       {"+ exploration (full)", kDefaultArm, true}};
  for (const CandidateVariant& v : variants) {
    if (v.id == kDefaultArm) continue;
    OnlineIlConfig cfg;
    cfg.include_cluster_sweeps = v.sweeps;
    cfg.explore_init = 0.0;
    cfg.explore_min = 0.0;
    cfg.innovation_reset_threshold = 1e9;  // never re-arm
    add_online_arm(v.id, cfg);
  }

  // Section E, policy optimizer (ml/optimizer.h): same online-IL pipeline,
  // different parameter-update rule.  Learning rates are per-rule: plain
  // SGD on cross-entropy needs a much larger step than Adam's adaptive one.
  struct OptArm {
    const char* name;
    std::string id;
    ml::OptimizerConfig opt;
    double lr;  // the default arm keeps the IlPolicyConfig default
  };
  std::vector<OptArm> opt_arms;
  {
    opt_arms.push_back({"Adam (default)", kDefaultArm, ml::OptimizerConfig{}, 0.0});
    ml::OptimizerConfig sgd;
    sgd.kind = ml::OptimizerConfig::Kind::kSgd;
    opt_arms.push_back({"SGD", "ablate/optimizer/1", sgd, 0.1});
    ml::OptimizerConfig mom = sgd;
    mom.momentum = 0.9;
    opt_arms.push_back({"SGD + momentum 0.9", "ablate/optimizer/2", mom, 0.05});
  }
  for (const OptArm& arm : opt_arms) {
    if (arm.id == kDefaultArm) continue;
    OnlineIlConfig cfg;
    cfg.policy.optimizer = arm.opt;
    cfg.policy.learning_rate = arm.lr;
    add_online_arm(arm.id, cfg);
  }

  // ---- Section C: implicit vs explicit NMPC --------------------------------
  const double fps = 30.0;
  const std::vector<std::string> nmpc_workloads{"EpicCitadel", "SharkDash", "GFXBench-trex"};
  for (const std::string& name : nmpc_workloads) {
    const std::string id = "ablate/enmpc/" + name;
    registry.add(id, [id, name, fps] { return nmpc_vs_enmpc_arm(id, name, fps); });
  }

  // ---- Section D: forgetting factors ---------------------------------------
  struct DArm {
    std::string label;
    ml::StaffConfig cfg;
  };
  std::vector<DArm> staff_arms;
  for (double lambda : {0.90, 0.98, 0.999}) {
    ml::StaffConfig s;
    s.lambda_min = s.lambda_max = s.lambda_init = lambda;
    staff_arms.push_back({"fixed lambda = " + common::Table::fmt(lambda, 3), s});
  }
  staff_arms.push_back({"STAFF (adaptive)", ml::StaffConfig{}});
  for (std::size_t i = 0; i < staff_arms.size(); ++i) {
    const std::string id = "ablate/staff/" + std::to_string(i);
    registry.add(id, [id, cfg = staff_arms[i].cfg] { return staff_arm(id, cfg); });
  }

  if (driver.listing()) return driver.list(registry);

  // The engine outlives the cache that borrows its pool: cold Oracle
  // searches issued from inside arm workers shard across the same pool via
  // its helping-drain path, and --store makes them persistent.  The offline
  // dataset and policies are only made (or restored) for the online-IL arms
  // that run.
  ExperimentEngine engine;
  shared->cache = std::make_shared<OracleCache>(driver.store(), &engine.pool());
  std::vector<IlPolicyConfig> policy_cfgs;  // distinct, in arm-id order
  for (const std::string& name : driver.selection(registry)) {
    const auto it = configs.find(name);
    if (it == configs.end()) continue;
    const IlPolicyConfig pc = it->second.policy_config();
    if (shared->policies.emplace(il_policy_config_hash(pc), nullptr).second)
      policy_cfgs.push_back(pc);
  }
  if (!policy_cfgs.empty()) {
    shared->off = offline_dataset(soc::PlatformParams{},
                                  workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench),
                                  Objective::kEnergy, /*snippets_per_app=*/40,
                                  /*configs_per_snippet=*/6, /*collect_seed=*/7,
                                  /*thermal_aware=*/false, shared->cache.get(),
                                  driver.store().get(), &engine.pool());
    const auto trained =
        engine.pool().parallel_map(policy_cfgs, [&](const IlPolicyConfig& pc, std::size_t) {
          return offline_policy(*shared->off, soc::ConfigSpace(), pc, /*train_seed=*/5,
                                driver.store().get());
        });
    for (const auto& policy : trained)
      shared->policies[il_policy_config_hash(policy->config())] = policy;
  }

  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  write_oracle_stats(
      driver, *shared->cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());
  const bench::ResultIndex index(results);

  std::map<std::string, OnlineArmResult> arm;
  for (const auto& [id, cfg] : configs)
    if (const AnyResult* r = index.find(id))
      arm.emplace(id, summarize_arm(r->as<RunResult>(), cfg));

  if (arm.count(buffer_rows[0].id) || arm.count(buffer_rows[1].id) ||
      arm.count(buffer_rows[2].id)) {
    std::puts("=== A. Aggregation-buffer size (paper setting: 100) ===");
    common::Table t({"Buffer", "Energy/Oracle", "Tail E/Oracle", "Buffer bytes"});
    for (const BufferRow& row : buffer_rows) {
      const auto it = arm.find(row.id);
      if (it == arm.end()) continue;  // arm deselected by prefix
      t.add_row({std::to_string(row.size), common::Table::fmt(it->second.energy_ratio, 3),
                 common::Table::fmt(it->second.tail_ratio, 3),
                 std::to_string(it->second.buffer_bytes)});
    }
    t.print(std::cout);
    std::puts("100 labels per update (the paper's setting) adapts as well as larger");
    std::puts("buffers at a fraction of the storage (<20 KB with the policy).\n");
  }

  if (arm.count(variants[0].id) || arm.count(variants[1].id) || arm.count(variants[2].id)) {
    std::puts("=== B. Candidate-set construction ===");
    common::Table tb({"Variant", "Energy/Oracle", "Tail E/Oracle"});
    for (const CandidateVariant& v : variants) {
      const auto it = arm.find(v.id);
      if (it == arm.end()) continue;
      tb.add_row({v.name, common::Table::fmt(it->second.energy_ratio, 3),
                  common::Table::fmt(it->second.tail_ratio, 3)});
    }
    tb.print(std::cout);
    std::puts("Single-knob moves cannot cross the cluster-off/on energy valley, and");
    std::puts("without exploration the models lock into self-confirming states.\n");
  }

  bool have_opt = false;
  for (const OptArm& a : opt_arms) have_opt |= index.has(a.id);
  if (have_opt) {
    std::puts("=== E. Policy optimizer (update rule of the IL network) ===");
    common::Table t({"Optimizer", "Energy/Oracle", "Tail E/Oracle", "Final loss"});
    for (const OptArm& a : opt_arms) {
      const AnyResult* r = index.find(a.id);
      const auto it = arm.find(a.id);
      if (!r || it == arm.end()) continue;
      t.add_row({a.name, common::Table::fmt(it->second.energy_ratio, 3),
                 common::Table::fmt(it->second.tail_ratio, 3),
                 common::Table::fmt(r->metric("final_loss"), 3)});
    }
    t.print(std::cout);
    std::puts("With per-rule learning rates all three land within a few percent; Adam");
    std::puts("(the default) needs no per-task rate tuning.  The update rule is a");
    std::puts("per-arm config knob (IlPolicyConfig::optimizer).\n");
  }

  bool have_nmpc = false;
  for (const std::string& name : nmpc_workloads) have_nmpc |= index.has("ablate/enmpc/" + name);
  if (have_nmpc) {
    std::puts("=== C. Implicit NMPC vs explicit NMPC ===");
    common::Table t({"Workload", "NMPC GPU J", "ENMPC GPU J", "delta (%)", "NMPC evals",
                     "ENMPC evals"});
    for (const std::string& name : nmpc_workloads) {
      const AnyResult* r = index.find("ablate/enmpc/" + name);
      if (!r) continue;
      const NmpcArm& a = r->as<NmpcArm>();
      t.add_row({name, common::Table::fmt(a.nmpc.gpu_energy_j, 2),
                 common::Table::fmt(a.enmpc.gpu_energy_j, 2),
                 common::Table::fmt(100.0 * (a.enmpc.gpu_energy_j / a.nmpc.gpu_energy_j - 1.0),
                                    1),
                 std::to_string(a.nmpc.decision_evals), std::to_string(a.enmpc.decision_evals)});
    }
    t.print(std::cout);
    std::puts("The explicit law gives up little energy while cutting slow-tick model");
    std::puts("evaluations by ~an order of magnitude (144 per solve -> 2 per lookup).\n");
  }

  bool have_staff = false;
  for (std::size_t i = 0; i < staff_arms.size(); ++i)
    have_staff |= index.has("ablate/staff/" + std::to_string(i));
  if (have_staff) {
    std::puts("=== D. Forgetting factor for the Fig. 2 predictor ===");
    common::Table t({"Predictor", "MAPE (%)"});
    for (std::size_t i = 0; i < staff_arms.size(); ++i) {
      const AnyResult* r = index.find("ablate/staff/" + std::to_string(i));
      if (!r) continue;
      t.add_row({staff_arms[i].label, common::Table::fmt(r->metric("mape_pct"), 2)});
    }
    t.print(std::cout);
    std::puts("Adaptive forgetting matches the best hand-tuned fixed factor without tuning.");
  }
  return 0;
}
