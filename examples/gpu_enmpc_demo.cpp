// Multi-variable GPU power management demo: baseline governor vs implicit
// NMPC vs explicit NMPC on one game, with per-phase configuration traces so
// you can watch the slow (slices) and fast (frequency) loops work.
//
// The three controllers are three registry arms run as one parallel
// ExperimentEngine batch; argv goes through the shared bench driver
// (`--frames/--law-samples` scale-down, `--list`, prefix selection, exit-2
// usage errors) instead of the old unchecked strtol scanning.
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "bench/driver.h"
#include "common/table.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/gpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

int main(int argc, char** argv) {
  std::size_t frames = 1500;
  std::size_t law_samples = 1500;
  bench::BenchDriver driver("gpu_enmpc_demo");
  driver.add_size_option("--frames", &frames, "frames of the EpicCitadel trace");
  driver.add_size_option("--law-samples", &law_samples, "Sobol samples of the explicit law");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  const double fps = 30.0;
  NmpcConfig cfg;
  cfg.fps_target = fps;
  const auto spec = workloads::GpuBenchmarks::by_name("EpicCitadel");

  // Harvest each controller's display name (and the ENMPC offline-sampling
  // cost) as its scenario runs: every on_complete writes its own
  // pre-inserted slot — no shared mutation.
  struct ArmInfo {
    std::string name;
    std::size_t offline_evals = 0;
  };
  auto info = std::make_shared<std::map<std::string, ArmInfo>>();

  ScenarioRegistry registry;
  const auto add_arm = [&](const std::string& id, GpuControllerFactory factory) {
    ArmInfo* slot = &(*info)[id];
    registry.add(id, [id, slot, factory, spec, frames, fps] {
      common::Rng trng(3);
      GpuScenario s;
      s.id = id;
      s.fps_target = fps;
      s.trace = workloads::GpuBenchmarks::trace(spec, frames, trng);
      s.initial = gpu::GpuConfig{9, s.platform.max_slices};
      s.make_controller = factory;
      s.on_complete = [slot](GpuController& ctl, const GpuRunResult&) {
        slot->name = ctl.name();
        if (const auto* enmpc = dynamic_cast<const ExplicitNmpcGpuController*>(&ctl))
          slot->offline_evals = enmpc->offline_evals();
      };
      return AnyScenario(std::move(s));
    });
  };
  add_arm("gpu_enmpc/1-baseline", gpu_baseline_factory());
  add_arm("gpu_enmpc/2-nmpc", gpu_nmpc_factory(cfg));
  add_arm("gpu_enmpc/3-enmpc", gpu_enmpc_factory(cfg, law_samples));
  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine(driver.engine_options());
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);

  std::printf("Workload: %s, %zu frames at %.0f FPS target\n\n", spec.name.c_str(), frames, fps);
  common::Table t({"Controller", "GPU J", "PKG J", "Miss %", "Freq changes", "Slice changes",
                   "Model evals"});
  for (const auto& r : results) {
    const GpuRunResult& run = r.as<GpuRunResult>();
    t.add_row({info->at(r.id()).name, common::Table::fmt(run.gpu_energy_j, 2),
               common::Table::fmt(run.pkg_energy_j, 2),
               common::Table::fmt(100.0 * run.miss_rate(), 2), std::to_string(run.freq_changes),
               std::to_string(run.slice_changes), std::to_string(run.decision_evals)});
  }
  t.print(std::cout);

  const bench::ResultIndex index(results);
  if (const AnyResult* e = index.find("gpu_enmpc/3-enmpc")) {
    // Show the multi-rate behaviour: slices change rarely, frequency often.
    const GpuRunResult& re = e->as<GpuRunResult>();
    const gpu::GpuPlatform plat;
    std::puts("\nExplicit-NMPC configuration trace (every 100th frame):");
    for (std::size_t i = 0; i < re.configs.size(); i += 100) {
      std::printf("  frame %4zu: %2d slices @ %4.0f MHz\n", i, re.configs[i].num_slices,
                  plat.freq_mhz(re.configs[i].freq_idx));
    }
    std::printf("\nExplicit-law construction used %zu offline NMPC evaluations (Sobol "
                "sampling).\n",
                info->at(e->id()).offline_evals);
  }
  return 0;
}
