// Fleet-scale population sweep: thousands of simulated devices through the
// streaming ExperimentEngine (ROADMAP "millions of users" arc).
//
// A seeded fleet::DevicePopulation perturbs the SoC platform into quantized
// silicon corners x OPP voltage bins, draws a continuous ambient spread, and
// stitches per-device workload mixes from canonical app traces; every device
// runs an "ondemand"-governed DRM trace under the fleet thermal limits
// (soc::ThermalSocAdapter clamping each decision) with E/Oracle computed
// through one shared OracleCache.  Quantized corners mean the whole fleet
// shares a bounded set of Oracle searches — cost is independent of the
// device count, and a --store warm pass skips all of it.
//
// Devices stream through ExperimentEngine::run_any_streaming in fixed-size
// shards (peak result memory = one shard, never the population) into a
// fleet::PopulationAggregator; per-shard id-order delivery makes the
// aggregate bitwise identical serial vs N-thread.  Per-cohort JSONL records
// gate the exact metrics (device / clamp / violation counts) and tolerance
// the energy ratios; wall time never reaches stdout.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "common/table.h"
#include "core/oracle.h"
#include "core/scenario_registry.h"
#include "fleet/aggregator.h"
#include "fleet/device_population.h"

using namespace oal;

namespace {

core::Metrics cohort_metrics(const fleet::CohortStats& c) {
  core::Metrics m;
  m.emplace_back("devices", static_cast<double>(c.devices));
  m.emplace_back("snippets", static_cast<double>(c.snippets));
  m.emplace_back("clamped", static_cast<double>(c.clamped));
  m.emplace_back("skin_violations", static_cast<double>(c.skin_violations));
  m.emplace_back("energy_ratio_mean", c.energy_ratio.stats().mean());
  m.emplace_back("energy_ratio_p50", c.energy_ratio.percentile(50.0));
  m.emplace_back("energy_ratio_p99", c.energy_ratio.percentile(99.0));
  m.emplace_back("clamp_rate_mean", c.clamp_rate.stats().mean());
  m.emplace_back("clamp_rate_p99", c.clamp_rate.percentile(99.0));
  m.emplace_back("peak_skin_p99", c.peak_skin_c.percentile(99.0));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  bench::BenchDriver driver("fleet_population");
  std::size_t devices = 200;
  std::size_t shard_size = 64;
  std::size_t threads = 0;
  driver.add_size_option("--devices", &devices, "simulated devices in the population");
  driver.add_size_option("--shard-size", &shard_size,
                         "scenarios materialized per streaming shard");
  driver.add_size_option("--threads", &threads, "engine worker threads");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  core::ExperimentEngine engine(core::ExperimentOptions{threads});
  auto cache = std::make_shared<core::OracleCache>(driver.store(), &engine.pool());

  fleet::PopulationConfig cfg;
  cfg.devices = devices;
  const fleet::DevicePopulation population(cfg, cache);

  // Every device is a registry arm, so --list and '/'-segment cohort
  // prefixes ("fleet/typ", "fleet/fast/vhigh/hot") work exactly as on every
  // other bench.  Builders are lazy: cataloging never builds a scenario.
  core::ScenarioRegistry registry;
  for (std::size_t i = 0; i < population.size(); ++i)
    registry.add(population.spec(i).id, [population, i] { return population.scenario(i); });

  if (driver.listing()) return driver.list(registry);

  // Stream the selection: the generator builds one scenario at a time in
  // name order, the engine runs fixed-size shards, and the aggregator folds
  // each result as it is delivered — no result vector ever exists.
  const std::vector<std::string> names = driver.selection(registry);
  fleet::PopulationAggregator aggregate(cfg.t_max_skin_c);
  std::size_t cursor = 0;
  const std::size_t ran = engine.run_any_streaming(
      [&]() -> std::optional<core::AnyScenario> {
        if (cursor >= names.size()) return std::nullopt;
        return registry.build(names[cursor++]);
      },
      [&](core::AnyResult&& r) { aggregate.add(r); }, core::StreamOptions{shard_size});

  // ---- JSONL: population + per-cohort records -----------------------------
  driver.json().write_metrics(driver.bench_name(), driver.bench_name() + "/population",
                              cohort_metrics(aggregate.population()));
  for (const auto& [cohort, stats] : aggregate.cohorts())
    driver.json().write_metrics(driver.bench_name(), driver.bench_name() + "/cohort/" + cohort,
                                cohort_metrics(stats));
  write_oracle_stats(
      driver, *cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());

  // ---- Report (deterministic values only — never wall time) ---------------
  const fleet::CohortStats& pop = aggregate.population();
  std::printf("=== Fleet population sweep: %zu devices, shard size %zu ===\n", ran, shard_size);
  std::printf("E/Oracle mean %.4f  p50 %.4f  p99 %.4f\n", pop.energy_ratio.stats().mean(),
              pop.energy_ratio.percentile(50.0), pop.energy_ratio.percentile(99.0));
  std::printf("Clamp rate mean %.4f  p99 %.4f   skin violations %zu/%zu devices\n",
              pop.clamp_rate.stats().mean(), pop.clamp_rate.percentile(99.0),
              pop.skin_violations, pop.devices);

  common::Table cohorts({"Cohort", "Devices", "E/Oracle p50", "E/Oracle p99", "Clamp rate",
                         "Skin viol"});
  for (const auto& [cohort, stats] : aggregate.cohorts())
    cohorts.add_row({cohort, std::to_string(stats.devices),
                     common::Table::fmt(stats.energy_ratio.percentile(50.0), 4),
                     common::Table::fmt(stats.energy_ratio.percentile(99.0), 4),
                     common::Table::fmt(stats.clamp_rate.stats().mean(), 4),
                     std::to_string(stats.skin_violations)});
  std::puts("");
  std::puts(cohorts.to_string().c_str());

  if (!aggregate.worst().empty()) {
    common::Table tail({"Tail device", "E/Oracle", "Clamp rate", "Peak skin (C)"});
    for (const fleet::TailDevice& d : aggregate.worst())
      tail.add_row({d.id, common::Table::fmt(d.energy_ratio, 4),
                    common::Table::fmt(d.clamp_rate, 4), common::Table::fmt(d.peak_skin_c, 2)});
    std::puts(tail.to_string().c_str());
  }
  return 0;
}
