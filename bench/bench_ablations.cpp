// Ablation studies for the design choices called out in DESIGN.md:
//  A. Online-IL aggregation-buffer size (paper: 100 samples ~ 100% accuracy,
//     <20 KB storage).
//  B. Candidate-set construction (local neighborhood vs + cluster sweeps vs
//     + exploration) — why each ingredient is needed.
//  C. NMPC vs explicit NMPC: identical-task energy and decision overhead.
//  D. Fixed forgetting factors vs STAFF for the Fig. 2 predictor.
//
// Every arm is a ScenarioRegistry entry: A and B are DRM scenarios (the
// per-arm offline collection + training runs inside each scenario's
// controller factory, i.e. on the pool), C and D are custom AnyScenario
// closures that own all their state.  One parallel batch executes whatever
// the driver's prefixes select.
#include <chrono>
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

/// Builds the online-IL arm scenario for one OnlineIlConfig.  The factory
/// reproduces the per-arm protocol: offline collection on MiBench, policy
/// training, model bootstrap — all per scenario, all on the worker.
Scenario online_arm_scenario(const OnlineIlConfig& cfg, std::shared_ptr<OracleCache> cache) {
  Scenario s;
  common::Rng seq_rng(99);
  std::vector<workloads::AppSpec> apps;
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kCortex))
    apps.push_back(a);
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kParsec))
    apps.push_back(a);
  s.trace = workloads::CpuBenchmarks::sequence(apps, seq_rng);
  s.oracle_cache = cache;
  // Every arm collects over the same collect_seed trace, so the shared cache
  // labels each offline snippet once instead of once per arm.
  s.make_controller = online_il_collect_factory(
      workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench), /*snippets_per_app=*/40,
      /*configs_per_snippet=*/6, /*collect_seed=*/7, /*train_seed=*/5, cfg, std::move(cache));
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

  // The engine outlives the cache that borrows its pool: cold Oracle
  // searches issued from inside arm workers shard across the same pool via
  // its helping-drain path, and --store makes them persistent.
  ExperimentEngine engine;
  auto cache = std::make_shared<OracleCache>(driver.store(), &engine.pool());
  ScenarioRegistry registry;

  // ---- Sections A + B: online-IL configuration ablations -------------------
  struct CandidateVariant {
    const char* name;
    bool sweeps;
    double explore;
  };
  const CandidateVariant variants[] = {{"neighborhood only", false, 0.0},
                                       {"+ cluster sweeps", true, 0.0},
                                       {"+ exploration (full)", true, 0.15}};

  std::map<std::string, OnlineIlConfig> configs;
  for (std::size_t buf : {50u, 100u, 400u}) {
    OnlineIlConfig cfg;
    cfg.buffer_capacity = buf;
    const std::string id = "ablate/buffer/" + std::to_string(buf);
    configs[id] = cfg;
    registry.add(id, [cfg, cache] { return online_arm_scenario(cfg, cache); });
  }
  for (std::size_t v = 0; v < 3; ++v) {
    OnlineIlConfig cfg;
    cfg.include_cluster_sweeps = variants[v].sweeps;
    cfg.explore_init = variants[v].explore;
    if (variants[v].explore == 0.0) {
      cfg.explore_min = 0.0;
      cfg.innovation_reset_threshold = 1e9;  // never re-arm
    }
    const std::string id = "ablate/candidates/" + std::to_string(v);
    configs[id] = cfg;
    registry.add(id, [cfg, cache] { return online_arm_scenario(cfg, cache); });
  }

  // ---- Section E: policy optimizer (ml/optimizer.h) ------------------------
  // Same online-IL pipeline, different parameter-update rule.  Learning
  // rates are per-rule: plain SGD on cross-entropy needs a much larger step
  // than Adam's adaptive one.
  struct OptArm {
    const char* name;
    ml::OptimizerConfig opt;
    double lr;  // 0 = keep the IlPolicyConfig default
  };
  std::vector<OptArm> opt_arms;
  {
    opt_arms.push_back({"Adam (default)", ml::OptimizerConfig{}, 0.0});
    ml::OptimizerConfig sgd;
    sgd.kind = ml::OptimizerConfig::Kind::kSgd;
    opt_arms.push_back({"SGD", sgd, 0.1});
    ml::OptimizerConfig mom = sgd;
    mom.momentum = 0.9;
    opt_arms.push_back({"SGD + momentum 0.9", mom, 0.05});
  }
  for (std::size_t i = 0; i < opt_arms.size(); ++i) {
    OnlineIlConfig cfg;
    cfg.policy.optimizer = opt_arms[i].opt;
    if (opt_arms[i].lr > 0.0) cfg.policy.learning_rate = opt_arms[i].lr;
    const std::string id = "ablate/optimizer/" + std::to_string(i);
    configs[id] = cfg;
    registry.add(id, [cfg, cache] { return online_arm_scenario(cfg, cache); });
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

  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  write_oracle_stats(
      driver, *cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());
  const bench::ResultIndex index(results);

  std::map<std::string, OnlineArmResult> arm;
  for (const auto& [id, cfg] : configs)
    if (const AnyResult* r = index.find(id))
      arm.emplace(id, summarize_arm(r->as<RunResult>(), cfg));

  if (arm.count("ablate/buffer/50") || arm.count("ablate/buffer/100") ||
      arm.count("ablate/buffer/400")) {
    std::puts("=== A. Aggregation-buffer size (paper setting: 100) ===");
    common::Table t({"Buffer", "Energy/Oracle", "Tail E/Oracle", "Buffer bytes"});
    for (std::size_t buf : {50u, 100u, 400u}) {
      const auto it = arm.find("ablate/buffer/" + std::to_string(buf));
      if (it == arm.end()) continue;  // arm deselected by prefix
      t.add_row({std::to_string(buf), common::Table::fmt(it->second.energy_ratio, 3),
                 common::Table::fmt(it->second.tail_ratio, 3),
                 std::to_string(it->second.buffer_bytes)});
    }
    t.print(std::cout);
    std::puts("100 labels per update (the paper's setting) adapts as well as larger");
    std::puts("buffers at a fraction of the storage (<20 KB with the policy).\n");
  }

  if (arm.count("ablate/candidates/0") || arm.count("ablate/candidates/1") ||
      arm.count("ablate/candidates/2")) {
    std::puts("=== B. Candidate-set construction ===");
    common::Table tb({"Variant", "Energy/Oracle", "Tail E/Oracle"});
    for (std::size_t v = 0; v < 3; ++v) {
      const auto it = arm.find("ablate/candidates/" + std::to_string(v));
      if (it == arm.end()) continue;
      tb.add_row({variants[v].name, common::Table::fmt(it->second.energy_ratio, 3),
                  common::Table::fmt(it->second.tail_ratio, 3)});
    }
    tb.print(std::cout);
    std::puts("Single-knob moves cannot cross the cluster-off/on energy valley, and");
    std::puts("without exploration the models lock into self-confirming states.\n");
  }

  bool have_opt = false;
  for (std::size_t i = 0; i < opt_arms.size(); ++i)
    have_opt |= index.has("ablate/optimizer/" + std::to_string(i));
  if (have_opt) {
    std::puts("=== E. Policy optimizer (update rule of the IL network) ===");
    common::Table t({"Optimizer", "Energy/Oracle", "Tail E/Oracle", "Final loss"});
    for (std::size_t i = 0; i < opt_arms.size(); ++i) {
      const std::string id = "ablate/optimizer/" + std::to_string(i);
      const AnyResult* r = index.find(id);
      const auto it = arm.find(id);
      if (!r || it == arm.end()) continue;
      t.add_row({opt_arms[i].name, common::Table::fmt(it->second.energy_ratio, 3),
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
