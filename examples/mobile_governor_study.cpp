// Governor shoot-out on the mobile SoC: the Linux-style heuristics the paper
// motivates against (ondemand, interactive, performance, powersave) vs the
// learned online-IL controller, all normalized to the Oracle.
//
// Each governor is a named scenario in a ScenarioRegistry; the whole
// shoot-out is one parallel ExperimentEngine batch over the same sequence.
// Argv goes through the shared bench driver (`--offline-per-app/--snippets`
// scale-down, `--list`, prefix selection, exit-2 usage errors).
#include <cstdio>
#include <iostream>
#include <map>

#include "bench/driver.h"
#include "common/table.h"
#include "core/online_il.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

int main(int argc, char** argv) {
  std::size_t offline_per_app = 30;
  std::size_t max_snippets = 1000;  // cap on the mixed-suite sequence
  bench::BenchDriver driver("mobile_governor_study");
  driver.add_size_option("--offline-per-app", &offline_per_app,
                         "offline snippets per MiBench training app");
  driver.add_size_option("--snippets", &max_snippets, "cap on the mixed-suite sequence length");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  // A mixed-suite sequence (one app from each suite).
  std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("FFT"),
                                       workloads::CpuBenchmarks::by_name("Kmeans"),
                                       workloads::CpuBenchmarks::by_name("Blkschls-4T")};
  common::Rng seq_rng(17);
  auto seq = workloads::CpuBenchmarks::sequence(apps, seq_rng);
  if (seq.size() > max_snippets) seq.resize(max_snippets);

  // Each builder harvests its controller's display name into its own
  // pre-inserted map slot as the scenario runs — no shared mutation.
  std::map<std::string, std::string> names;
  ScenarioRegistry registry;
  const auto add_governor = [&](const std::string& name, ControllerFactory make) {
    const std::string id = "governors/" + name;
    std::string* slot = &names[id];
    registry.add(id, [seq, make, slot] {
      Scenario s;
      s.trace = seq;
      s.make_controller = make;
      s.on_complete = [slot](DrmController& ctl, const RunResult&) { *slot = ctl.name(); };
      return s;
    });
  };
  add_governor("1-performance", governor_factory("performance"));
  add_governor("2-powersave", governor_factory("powersave"));
  add_governor("3-ondemand", governor_factory("ondemand"));
  add_governor("4-interactive", governor_factory("interactive"));
  // The MiBench offline dataset is collected after the --list fast path and
  // only when the online-IL arm is selected, so neither pays for profiling.
  auto offline = std::make_shared<std::shared_ptr<const OfflineData>>();
  add_governor("5-online-il", [offline](ScenarioContext& ctx) {
    return online_il_factory(*offline, /*train_seed=*/7)(ctx);
  });

  if (driver.listing()) return driver.list(registry);
  std::printf("Workload: FFT -> Kmeans -> Blkschls-4T, %zu snippets\n\n", seq.size());

  ExperimentEngine engine(driver.engine_options());
  for (const std::string& id : driver.selection(registry)) {
    if (id != "governors/5-online-il") continue;
    OracleCache cache(driver.store(), &engine.pool());
    *offline = offline_dataset(soc::PlatformParams{},
                               workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench),
                               Objective::kEnergy, offline_per_app, /*configs_per_snippet=*/6,
                               /*collect_seed=*/7, /*thermal_aware=*/false, &cache,
                               driver.store().get(), &engine.pool());
  }
  const std::vector<AnyResult> results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  common::Table t({"Controller", "Energy (J)", "E/Oracle", "Time (s)"});
  for (const AnyResult& r : results) {
    const RunResult& run = r.as<RunResult>();
    t.add_row({names.at(r.id()), common::Table::fmt(run.total_energy_j(), 2),
               common::Table::fmt(run.energy_ratio(), 2),
               common::Table::fmt(run.total_time_s(), 1)});
  }

  t.print(std::cout);
  std::puts("\nThe heuristics 'leave considerable room for improvement' (paper Sec. I);");
  std::puts("the model-guided online-IL controller closes most of the gap to the Oracle.");
  return 0;
}
