// Quickstart: the complete online-adaptive-learning loop in ~60 lines.
//
// 1. Profile design-time workloads and build an Oracle-labeled dataset.
// 2. Train the offline IL policy and bootstrap the online models.
// 3. Deploy the model-guided online-IL controller on an *unseen* workload
//    and watch it converge toward Oracle-level energy.
//
// The pipeline is cataloged as one registry arm and argv goes through the
// shared bench driver, so `quickstart --list`, prefix selection, and
// `--snippets/--per-app` scale-down all behave exactly like the benches
// (unknown flags and malformed counts exit 2 with usage).
#include <algorithm>
#include <cstdio>

#include "bench/driver.h"
#include "core/online_il.h"
#include "core/runner.h"
#include "core/scenario_registry.h"
#include "workloads/cpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

/// Everything the report needs from the worker-side pipeline run.
struct QuickstartRun {
  RunResult run;
  std::size_t dataset_states = 0;
  std::size_t policy_params = 0;
  std::size_t policy_bytes = 0;
  std::size_t policy_updates = 0;
  std::size_t config_count = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t online_snippets = 400;
  std::size_t snippets_per_app = 30;
  bench::BenchDriver driver("quickstart");
  driver.add_size_option("--snippets", &online_snippets, "online snippets of the unseen workload");
  driver.add_size_option("--per-app", &snippets_per_app, "offline snippets per training app");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  ScenarioRegistry registry;
  const std::string arm = "quickstart/online-il";
  registry.add(arm, [arm, online_snippets, snippets_per_app] {
    return AnyScenario(arm, [arm, online_snippets, snippets_per_app] {
      // The platform: an Exynos-5422-class big.LITTLE SoC simulator with the
      // Table-I performance counters.
      soc::BigLittlePlatform platform;

      // --- 1. Offline phase (design time) ----------------------------------
      common::Rng rng(7);
      const auto train_apps = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
      const OfflineData offline = collect_offline_data(platform, train_apps, Objective::kEnergy,
                                                       snippets_per_app,
                                                       /*configs_per_snippet=*/6, rng);

      // --- 2. Train policy + bootstrap models ------------------------------
      IlPolicy policy(platform.space());
      policy.train_offline(offline.policy, rng);
      OnlineSocModels models(platform.space());
      models.bootstrap(offline.model_samples);

      // --- 3. Online phase: a workload the policy has never seen -----------
      const auto& unseen = workloads::CpuBenchmarks::by_name("Kmeans");
      common::Rng wl_rng(42);
      const auto trace = workloads::CpuBenchmarks::trace(unseen, online_snippets, wl_rng);

      OnlineIlController controller(platform.space(), policy, models);
      DrmRunner runner(platform);
      QuickstartRun out;
      out.run = runner.run(trace, controller, soc::SocConfig{4, 4, 8, 10});
      out.dataset_states = offline.policy.states.size();
      out.policy_params = policy.num_params();
      out.policy_bytes = policy.storage_bytes();
      out.policy_updates = controller.policy_updates();
      out.config_count = platform.space().size();

      Metrics m = drm_metrics(out.run);
      m.emplace_back("policy_updates", static_cast<double>(out.policy_updates));
      return AnyResult(arm, std::move(out), std::move(m));
    });
  });
  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine(driver.engine_options());
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);

  for (const auto& r : results) {
    const QuickstartRun& q = r.as<QuickstartRun>();
    std::printf("Platform: %zu configurations, %zu-dim counter vector\n", q.config_count,
                soc::PerfCounters::kDim);
    std::printf("Offline dataset: %zu Oracle-labeled states\n", q.dataset_states);
    std::printf("IL policy: %zu parameters (%zu bytes — fits an OS governor)\n", q.policy_params,
                q.policy_bytes);

    const std::size_t n = q.run.records.size();
    // Floor of one record per window so tiny --snippets runs stay finite.
    const std::size_t quarter = std::max<std::size_t>(n / 4, 1);
    const auto window_ratio = [&](std::size_t lo, std::size_t hi) {
      double e = 0.0, oe = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        e += q.run.records[i].energy_j;
        oe += q.run.records[i].oracle_energy_j;
      }
      return e / oe;
    };
    std::printf("\nRunning 'Kmeans' (unseen at design time), %zu snippets, %.1f s:\n", n,
                q.run.total_time_s());
    std::printf("  energy vs Oracle, 1st quarter: %.2fx   (policy still offline-shaped)\n",
                window_ratio(0, quarter));
    std::printf("  energy vs Oracle, last quarter: %.2fx  (adapted online)\n",
                window_ratio(n - quarter, n));
    std::printf("  policy updates performed: %zu (aggregation buffer of 100)\n",
                q.policy_updates);
  }
  return 0;
}
