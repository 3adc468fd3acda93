// Reproduces Fig. 5: energy savings of the explicit NMPC algorithm compared
// to the baseline (busy-threshold, all-slices-on) GPU power management, for
// the GPU alone, for the system package (PKG), and for package plus memory
// (PKG+DRAM), across ten graphics workloads.
//
// The twenty arms (10 workloads x {baseline, ENMPC}) plus the thermal
// sweeps are one ScenarioRegistry catalog executed as one parallel batch
// through the shared bench driver; each scenario owns its platform instance
// and the ENMPC arms bootstrap + fit their explicit law on the worker:
//   fig5/<workload>/<baseline|enmpc>             the paper's Fig. 5 arms
//   fig5_thermal/<wl>/skin<limit>/<blind|aware>  steady-state skin budget,
//                                                blind vs budget-constrained
//                                                (thermal-aware) ENMPC
//   fig5_transient/<wl>/h<horizon>/<blind|aware> preheated device, transient
//                                                headroom budget recomputed
//                                                every frame
//
// Paper: GPU savings range from 5% (AngryBirds) to 58% (SharkDash), average
// ~25%; PKG and PKG+DRAM save ~15%; performance overhead is ~0.4%.
#include <cstdio>
#include <iostream>

#include "bench/driver.h"
#include "common/table.h"
#include "core/domain.h"
#include "core/scenario_registry.h"
#include "core/scenario_factories.h"
#include "workloads/gpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

int main(int argc, char** argv) {
  const double fps = 30.0;
  std::size_t frames = 1800;  // 60 s at 30 FPS per workload
  bench::BenchDriver driver("fig5_enmpc");
  driver.add_size_option("--frames", &frames, "frames per workload trace");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  NmpcConfig cfg;
  cfg.fps_target = fps;

  ScenarioRegistry registry;
  for (const auto& spec : workloads::GpuBenchmarks::fig5_suite()) {
    for (const char* arm : {"baseline", "enmpc"}) {
      const bool baseline = arm == std::string("baseline");
      registry.add("fig5/" + spec.name + "/" + arm, [spec, frames, fps, cfg, baseline] {
        common::Rng trng(1000 + spec.id);
        GpuScenario s;
        s.fps_target = fps;
        s.trace = workloads::GpuBenchmarks::trace(spec, frames, trng);
        s.initial = gpu::GpuConfig{9, s.platform.max_slices};
        s.make_controller = baseline ? gpu_baseline_factory() : gpu_enmpc_factory(cfg, 1500);
        return AnyScenario(std::move(s));
      });
    }
  }

  // ---- GPU budget sweep: ENMPC under a skin-temperature budget -------------
  // ThermalGpuScenario couples the frame loop into the RC network's (hitherto
  // unused) GPU node: frame energies heat the die, the skin limit sets a
  // power budget, and soc::ThermalGpuAdapter throttles decisions (frequency
  // first, then slice gating).  Each point runs twice: thermally *blind*
  // ENMPC (throttled after the fact) and *budget-constrained* ENMPC
  // (NmpcConfig::thermal_aware — the budget is a feasibility predicate of
  // the solve, fed by the runner's telemetry channel), so the sweep shows
  // how much of the firmware correction the controller can anticipate away.
  const auto thermal_spec = workloads::GpuBenchmarks::by_name("AngryBirds");
  NmpcConfig aware_cfg = cfg;
  aware_cfg.thermal_aware = true;
  const auto add_thermal_arm = [&registry, thermal_spec, frames, fps](
                                   const std::string& id, NmpcConfig arm_cfg,
                                   soc::ThermalGpuConstraintParams thermal) {
    registry.add(id, [thermal_spec, frames, fps, arm_cfg, thermal] {
      common::Rng trng(1000 + thermal_spec.id);
      GpuScenario s;
      s.fps_target = fps;
      s.trace = workloads::GpuBenchmarks::trace(thermal_spec, frames, trng);
      s.initial = gpu::GpuConfig{9, s.platform.max_slices};
      s.make_controller = gpu_enmpc_factory(arm_cfg, 1500);
      return AnyScenario(ThermalGpuScenario{std::move(s), thermal});
    });
  };
  const std::vector<double> skin_limits{45.0, 41.0, 39.0, 37.5};
  for (double limit : skin_limits) {
    soc::ThermalGpuConstraintParams thermal;
    thermal.ambient_c = 35.0;
    thermal.limits.t_max_skin_c = limit;
    thermal.limits.t_max_junction_c = 75.0;
    thermal.horizon_s = 0.0;  // steady-state budget
    const std::string base =
        "fig5_thermal/" + thermal_spec.name + "/skin" + common::Table::fmt(limit, 1);
    add_thermal_arm(base + "/blind", cfg, thermal);
    add_thermal_arm(base + "/aware", aware_cfg, thermal);
  }

  // ---- Transient-budget sweep: preheated device, budget moving every frame --
  // A device already hot from prior load (non-default initial temperatures)
  // under a transient_power_headroom budget recomputed every frame period:
  // short horizons grant bursts the thermal capacitance can absorb, long
  // horizons converge on the sustainable level; meanwhile the budget relaxes
  // as throttling lets the RC network cool.  The telemetry channel is what
  // lets the aware controller track this moving target.
  const std::vector<double> headroom_horizons{10.0, 120.0, 240.0};
  for (double horizon : headroom_horizons) {
    soc::ThermalGpuConstraintParams thermal;
    thermal.ambient_c = 35.0;
    thermal.limits.t_max_skin_c = 40.0;
    thermal.limits.t_max_junction_c = 75.0;
    thermal.horizon_s = horizon;
    thermal.budget_interval_s = 1.0 / fps;  // refresh the budget every frame
    // Preheated: die nodes well above ambient, skin 0.5 C under its limit
    // (node order: big, little, gpu, pcb, skin).
    thermal.initial_temperature_c = {48.0, 46.0, 58.0, 45.0, 39.5};
    const std::string base =
        "fig5_transient/" + thermal_spec.name + "/h" + common::Table::fmt(horizon, 0);
    add_thermal_arm(base + "/blind", cfg, thermal);
    add_thermal_arm(base + "/aware", aware_cfg, thermal);
  }

  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine(driver.engine_options());
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  const bench::ResultIndex index(results);

  bool printed_fig5 = false;
  {
    common::Table t({"Workload", "GPU (%)", "PKG (%)", "PKG+DRAM (%)", "Miss base",
                     "Miss ENMPC"});
    double sum_gpu = 0.0, sum_pkg = 0.0, sum_dram = 0.0;
    double miss_base_total = 0.0, miss_enmpc_total = 0.0;
    int n = 0;
    for (const auto& spec : workloads::GpuBenchmarks::fig5_suite()) {
      const AnyResult* b = index.find("fig5/" + spec.name + "/baseline");
      const AnyResult* e = index.find("fig5/" + spec.name + "/enmpc");
      if (!b || !e) continue;  // arm deselected by prefix
      const GpuRunResult& rb = b->as<GpuRunResult>();
      const GpuRunResult& re = e->as<GpuRunResult>();
      const double g = 100.0 * (1.0 - re.gpu_energy_j / rb.gpu_energy_j);
      const double p = 100.0 * (1.0 - re.pkg_energy_j / rb.pkg_energy_j);
      const double d = 100.0 * (1.0 - re.pkg_dram_energy_j / rb.pkg_dram_energy_j);
      sum_gpu += g;
      sum_pkg += p;
      sum_dram += d;
      miss_base_total += rb.miss_rate();
      miss_enmpc_total += re.miss_rate();
      ++n;
      t.add_row({spec.name, common::Table::fmt(g, 1), common::Table::fmt(p, 1),
                 common::Table::fmt(d, 1), common::Table::fmt(100.0 * rb.miss_rate(), 2) + "%",
                 common::Table::fmt(100.0 * re.miss_rate(), 2) + "%"});
    }
    if (n > 0) {
      printed_fig5 = true;
      std::puts("=== Fig. 5: energy savings of explicit NMPC vs baseline governor ===");
      t.add_row({"Average", common::Table::fmt(sum_gpu / n, 1),
                 common::Table::fmt(sum_pkg / n, 1), common::Table::fmt(sum_dram / n, 1),
                 common::Table::fmt(100.0 * miss_base_total / n, 2) + "%",
                 common::Table::fmt(100.0 * miss_enmpc_total / n, 2) + "%"});
      t.print(std::cout);
      std::puts("\nPaper: GPU 5%..58% (avg ~25%), PKG ~15%, PKG+DRAM ~15%, perf overhead ~0.4%.");
      std::printf("Performance overhead here: %.2f%% extra deadline misses on average.\n",
                  100.0 * (miss_enmpc_total - miss_base_total) / n);
    }
  }

  const auto clamp_pct = [](const AnyResult& r) {
    return 100.0 * r.metric("clamped_frames") / r.metric("frames");
  };
  {
    common::Table tt({"Skin limit (C)", "Budget (W)", "Clamp blind", "Clamp aware", "GPU E blind",
                      "GPU E aware", "Miss blind", "Miss aware"});
    int n = 0;
    for (double limit : skin_limits) {
      const std::string base =
          "fig5_thermal/" + thermal_spec.name + "/skin" + common::Table::fmt(limit, 1);
      const AnyResult* blind = index.find(base + "/blind");
      const AnyResult* aware = index.find(base + "/aware");
      if (!blind || !aware) continue;
      ++n;
      tt.add_row({common::Table::fmt(limit, 1),
                  common::Table::fmt(blind->metric("final_budget_w"), 2),
                  common::Table::fmt(clamp_pct(*blind), 0) + "%",
                  common::Table::fmt(clamp_pct(*aware), 0) + "%",
                  common::Table::fmt(blind->metric("gpu_energy_j"), 2),
                  common::Table::fmt(aware->metric("gpu_energy_j"), 2),
                  common::Table::fmt(100.0 * blind->metric("miss_rate"), 2) + "%",
                  common::Table::fmt(100.0 * aware->metric("miss_rate"), 2) + "%"});
    }
    if (n > 0) {
      std::printf("%s=== ENMPC under a skin-temperature budget (hot enclosure, 35 C ambient) "
                  "===\n",
                  printed_fig5 ? "\n" : "");
      tt.print(std::cout);
      std::puts("Tighter skin limits shrink the sustainable budget.  Blind ENMPC fights the");
      std::puts("budgeter (it is throttled after the fact); budget-constrained ENMPC folds the");
      std::puts("telemetry budget into its feasibility set and proposes what firmware would");
      std::puts("grant, collapsing the clamp rate.");
    }
  }

  {
    common::Table tt({"Horizon (s)", "Final budget (W)", "Clamp blind", "Clamp aware",
                      "GPU E blind", "GPU E aware", "Peak skin aware (C)"});
    int n = 0;
    for (double horizon : headroom_horizons) {
      const std::string base =
          "fig5_transient/" + thermal_spec.name + "/h" + common::Table::fmt(horizon, 0);
      const AnyResult* blind = index.find(base + "/blind");
      const AnyResult* aware = index.find(base + "/aware");
      if (!blind || !aware) continue;
      ++n;
      tt.add_row({common::Table::fmt(horizon, 0),
                  common::Table::fmt(aware->metric("final_budget_w"), 2),
                  common::Table::fmt(clamp_pct(*blind), 0) + "%",
                  common::Table::fmt(clamp_pct(*aware), 0) + "%",
                  common::Table::fmt(blind->metric("gpu_energy_j"), 2),
                  common::Table::fmt(aware->metric("gpu_energy_j"), 2),
                  common::Table::fmt(aware->metric("peak_skin_c"), 1)});
    }
    if (n > 0) {
      std::puts("\n=== Transient budgets: preheated device, budget recomputed every frame ===");
      tt.print(std::cout);
      std::puts("Short transient_power_headroom horizons grant bursts the thermal capacitance");
      std::puts("absorbs; long horizons converge on the sustainable budget.  The budget moves");
      std::puts("every frame as the preheated device cools — the telemetry channel is what");
      std::puts("lets the aware controller track it.");
    }
  }
  return 0;
}
