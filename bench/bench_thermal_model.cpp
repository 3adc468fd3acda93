// Section III-A artifacts: power-temperature fixed points (existence,
// stability, runtime iteration), skin-temperature estimation accuracy, the
// value of greedy sensor selection, and thermal power budgets — plus the
// coupling of the thermal layer into the DRM hot path: how controller
// rankings shift when a thermal power budget throttles their decisions.
//
// Every arm lives in one ScenarioRegistry: the sweeps (fixed-point loads,
// sensor budgets, transient horizons) are custom AnyScenario closures that
// construct all their state inside the worker, and the DRM comparison is a
// mixed family of unconstrained Scenarios and ThermalDrmScenarios sharing
// one OracleCache.  The shared bench driver selects arms by prefix
// ("thermal", "thermal_drm/budget", "thermal_aware", ...); report sections
// whose arms were deselected are skipped.
#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <utility>

#include "bench/driver.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/rl_controller.h"
#include "core/scenario_factories.h"
#include "core/scenario_registry.h"
#include "thermal/fixed_point.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"
#include "thermal/skin_estimator.h"
#include "workloads/cpu_benchmarks.h"

using namespace oal;
using namespace oal::thermal;

namespace {

/// The bench's shared RC network / leakage corner (cheap to construct, so
/// arms rebuild it inside their closures instead of sharing state).
RcThermalNetwork bench_network() { return RcThermalNetwork::mobile_soc(); }

LeakageModel bench_leakage() {
  LeakageModel leak;
  leak.p0_w = {0.35, 0.08, 0.25, 0.0, 0.0};
  leak.k_per_c = {0.025, 0.02, 0.025, 0.0, 0.0};
  leak.t0_c = 25.0;
  return leak;
}

struct FpArm {
  FixedPointResult fp;
  std::size_t iters = 0;
};

/// The skin-estimation data set: 1200 s of piecewise-constant random power
/// on the RC network, read through noisy internal sensors.  Deterministic
/// (fixed seed), so every arm that needs it can rebuild it independently.
struct SkinDataset {
  SensorArray sensors{{0, 1, 2, 3}, 0.2, 33};
  std::vector<common::Vec> readings;
  std::vector<double> skin_truth;

  SkinDataset() {
    common::Rng rng(21);
    RcThermalNetwork sim = bench_network();
    common::Vec power(5, 0.0);
    for (int step = 0; step < 1200; ++step) {
      if (step % 60 == 0) {
        power = {rng.uniform(0.2, 4.5), rng.uniform(0.1, 1.0), rng.uniform(0.1, 3.0), 0.0, 0.0};
      }
      sim.step(power, 1.0);
      readings.push_back(sensors.read(sim.temperatures()));
      skin_truth.push_back(sim.temperatures()[4]);
    }
  }
};

/// Sensor-budget arm payload: the chosen node-id list and its training RMSE.
struct SensorArm {
  std::string chosen;
  double rmse_c = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  bench::BenchDriver driver("thermal_model");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  using namespace oal::core;
  const auto net = bench_network();
  const auto leak = bench_leakage();

  ScenarioRegistry registry;

  // ---- Fixed-point sweep ----------------------------------------------------
  const std::vector<std::array<double, 3>> fp_loads = {
      {1.0, 0.3, 0.5}, {2.5, 0.6, 1.5}, {4.0, 0.8, 2.5}, {5.5, 1.0, 3.5}};
  for (std::size_t i = 0; i < fp_loads.size(); ++i) {
    const std::string id = "thermal/fixed_point/" + std::to_string(i);
    registry.add(id, [id, l = fp_loads[i]] {
      return AnyScenario(id, [id, l] {
        const auto n = bench_network();
        const auto lk = bench_leakage();
        const common::Vec dyn{l[0], l[1], l[2], 0.0, 0.0};
        FpArm arm;
        arm.fp = thermal_fixed_point(n, lk, dyn);
        arm.iters = fixed_point_iteration(n, lk, dyn).size() - 1;
        Metrics m{{"loop_gain", arm.fp.loop_gain},
                  {"stable", arm.fp.exists ? 1.0 : 0.0},
                  {"iters", static_cast<double>(arm.iters)}};
        if (arm.fp.exists) {
          m.emplace_back("t_big_c", arm.fp.temperature_c[0]);
          m.emplace_back("t_skin_c", arm.fp.temperature_c[4]);
        }
        return AnyResult(id, std::move(arm), std::move(m));
      });
    });
  }

  // ---- Skin-temperature estimation ------------------------------------------
  registry.add("thermal/skin/estimator", [] {
    return AnyScenario("thermal/skin/estimator", [] {
      const SkinDataset data;
      const std::size_t train_n = 800;
      SkinTemperatureEstimator est(4);
      est.fit({data.readings.begin(), data.readings.begin() + train_n},
              {data.skin_truth.begin(), data.skin_truth.begin() + train_n});
      std::vector<double> pred, truth;
      for (std::size_t i = train_n; i < data.readings.size(); ++i) {
        pred.push_back(est.estimate(data.readings[i]));
        truth.push_back(data.skin_truth[i]);
      }
      const double rmse = common::rmse(truth, pred);
      return AnyResult("thermal/skin/estimator", rmse,
                       Metrics{{"rmse_c", rmse}, {"samples", static_cast<double>(pred.size())}});
    });
  });
  for (std::size_t k = 1; k <= 4; ++k) {
    const std::string id = "thermal/skin/sensors/" + std::to_string(k);
    registry.add(id, [id, k] {
      return AnyScenario(id, [id, k] {
        const SkinDataset data;
        const auto order = greedy_sensor_selection(data.readings, data.skin_truth, 4);
        std::vector<common::Vec> sub;
        sub.reserve(data.readings.size());
        for (const auto& r : data.readings) {
          common::Vec v;
          for (std::size_t j = 0; j < k; ++j) v.push_back(r[order[j]]);
          sub.push_back(v);
        }
        SkinTemperatureEstimator e(k);
        e.fit(sub, data.skin_truth);
        std::vector<double> p2;
        for (const auto& v : sub) p2.push_back(e.estimate(v));
        SensorArm arm;
        for (std::size_t j = 0; j < k; ++j)
          arm.chosen += std::to_string(data.sensors.nodes()[order[j]]) + (j + 1 < k ? "," : "");
        arm.rmse_c = common::rmse(data.skin_truth, p2);
        return AnyResult(id, arm, Metrics{{"rmse_c", arm.rmse_c}});
      });
    });
  }

  // ---- Transient power headroom sweep ---------------------------------------
  const std::vector<double> horizons{5.0, 20.0, 60.0, 300.0};
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};  // big-heavy workload mix
  for (double h : horizons) {
    const std::string id = "thermal/headroom/" + common::Table::fmt(h, 0);
    registry.add(id, [id, h, shape] {
      return AnyScenario(id, [id, h, shape] {
        RcThermalNetwork fresh = bench_network();
        const double w =
            transient_power_headroom(fresh, bench_leakage(), shape, h) *
            (shape[0] + shape[1] + shape[2]);
        return AnyResult(id, w, Metrics{{"headroom_w", w}});
      });
    });
  }

  // ---- Thermally-constrained DRM: do controller rankings survive a budget? --
  // Each controller runs the same trace twice — unconstrained, and on a
  // preheated device with tight junction/skin limits (soc::ThermalSocAdapter
  // clamping every decision).  One OracleCache serves every DRM arm; the
  // engine pool (declared before the cache that borrows it) shards its cold
  // searches, and --store keeps them across invocations.
  ExperimentEngine engine;
  auto cache = std::make_shared<OracleCache>(driver.store(), &engine.pool());
  std::vector<soc::SnippetDescriptor> trace;
  {
    common::Rng trace_rng(414);
    std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("Kmeans"),
                                         workloads::CpuBenchmarks::by_name("MotionEst")};
    trace = workloads::CpuBenchmarks::sequence(apps, trace_rng);
    if (trace.size() > 60) trace.resize(60);
  }

  // Hot-enclosure scenario (40 C ambient, e.g. a dashboard-mounted device):
  // a 3 K skin margin yields a ~1.7 W sustainable budget, well below the
  // platform's top configurations (~2.9 W), so the budgeter binds.
  // horizon_s = 0 selects the steady-state max_sustainable_power budget.
  soc::ThermalConstraintParams tight;
  tight.limits.t_max_junction_c = 55.0;
  tight.limits.t_max_skin_c = 43.0;
  tight.ambient_c = 40.0;
  tight.horizon_s = 0.0;

  // Online-IL starts from SHA + FFT offline data: one dataset and one
  // offline policy per feature space (blind, thermal-aware), made after the
  // --list fast path and only when a selected arm needs them.  Every arm of
  // a feature space adapts its own copy of that space's policy.
  struct IlArtifacts {
    std::shared_ptr<const OfflineData> off;
    std::shared_ptr<const IlPolicy> policy;
  };
  auto il = std::make_shared<std::array<IlArtifacts, 2>>();  // [blind, aware]
  const auto il_config = [](bool aware) {
    OnlineIlConfig cfg;
    cfg.thermal_aware = aware;
    return cfg;
  };
  const auto il_factory = [il, il_config](bool aware) -> ControllerFactory {
    return [il, cfg = il_config(aware)](ScenarioContext& ctx) {
      const IlArtifacts& a = (*il)[cfg.thermal_aware ? 1 : 0];
      return online_il_factory(a.policy, a.off, cfg)(ctx);
    };
  };
  const std::map<std::string, ControllerFactory> controllers{
      {"ondemand", governor_factory("ondemand")},
      {"performance", governor_factory("performance")},
      {"powersave", governor_factory("powersave")},
      {"online-il", il_factory(false)},
  };
  for (const auto& [name, factory] : controllers) {
    registry.add("thermal_drm/free/" + name, [trace, factory, cache] {
      Scenario s;
      s.trace = trace;
      s.make_controller = factory;
      s.oracle_cache = cache;
      return s;
    });
    registry.add("thermal_drm/budget/" + name, [trace, factory, cache, tight] {
      Scenario s;
      s.trace = trace;
      s.make_controller = factory;
      s.oracle_cache = cache;
      return AnyScenario(ThermalDrmScenario{std::move(s), tight});
    });
  }

  // ---- Blind vs thermal-aware learned policies under the same budget --------
  // The same learned controllers run the budgeted trace twice: blind
  // (telemetry ignored) and thermal-aware (policy state carries temperatures
  // + budget headroom; online-IL additionally restricts its candidate search
  // to budget-feasible configs).  Longer trace than the ranking section: the
  // aware controller's edge comes from its online models learning the true
  // power boundary, which takes a few policy-update periods to show.
  std::vector<soc::SnippetDescriptor> long_trace;
  {
    common::Rng trace_rng(414);
    std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("Kmeans"),
                                         workloads::CpuBenchmarks::by_name("MotionEst")};
    long_trace = workloads::CpuBenchmarks::sequence(apps, trace_rng);
    if (long_trace.size() > 600) long_trace.resize(600);
  }
  const auto dqn_factory = [](bool aware) {
    return [aware](ScenarioContext& ctx) {
      return ControllerInstance{
          std::make_unique<DqnController>(ctx.platform.space(), ml::DqnConfig{}, RlRewardScale{},
                                          aware),
          nullptr};
    };
  };
  const std::map<std::string, std::pair<ControllerFactory, ControllerFactory>> learned{
      {"online-il", {il_factory(false), il_factory(true)}},
      {"rl-dqn", {dqn_factory(false), dqn_factory(true)}},
  };
  for (const auto& [name, factories] : learned) {
    for (const char* mode : {"blind", "aware"}) {
      const ControllerFactory factory =
          mode == std::string("blind") ? factories.first : factories.second;
      registry.add("thermal_aware/" + std::string(mode) + "/" + name,
                   [long_trace, factory, cache, tight] {
                     Scenario s;
                     s.trace = long_trace;
                     s.make_controller = factory;
                     s.oracle_cache = cache;
                     return AnyScenario(ThermalDrmScenario{std::move(s), tight});
                   });
    }
  }

  if (driver.listing()) return driver.list(registry);

  bool need_blind = false, need_aware = false;
  for (const std::string& name : driver.selection(registry)) {
    if (name == "thermal_aware/aware/online-il") {
      need_aware = true;
    } else if (name.size() >= 10 && name.compare(name.size() - 10, 10, "/online-il") == 0) {
      need_blind = true;
    }
  }
  const auto collect = [&](bool aware) {
    return offline_dataset(soc::PlatformParams{},
                           {workloads::CpuBenchmarks::by_name("SHA"),
                            workloads::CpuBenchmarks::by_name("FFT")},
                           Objective::kEnergy, /*snippets_per_app=*/10,
                           /*configs_per_snippet=*/4, /*collect_seed=*/7, aware, cache.get(),
                           driver.store().get(), &engine.pool());
  };
  std::vector<int> spaces;  // feature spaces to make: 0 blind, 1 aware
  if (need_blind) spaces.push_back(0);
  if (need_aware) spaces.push_back(1);
  for (int aware : spaces) (*il)[aware].off = collect(aware != 0);
  const auto policies = engine.pool().parallel_map(spaces, [&](int aware, std::size_t) {
    return offline_policy(*(*il)[aware].off, soc::ConfigSpace(),
                          il_config(aware != 0).policy_config(), /*train_seed=*/5,
                          driver.store().get());
  });
  for (std::size_t i = 0; i < spaces.size(); ++i) (*il)[spaces[i]].policy = policies[i];

  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  write_oracle_stats(
      driver, *cache,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0).count());
  const bench::ResultIndex index(results);

  // ---- Report: fixed points -------------------------------------------------
  bool have_fp = false;
  for (std::size_t i = 0; i < fp_loads.size(); ++i)
    have_fp |= index.has("thermal/fixed_point/" + std::to_string(i));
  if (have_fp) {
    std::puts("=== Power-temperature fixed points (Section III-A) ===");
    common::Table fp_table({"Dyn power (big/little/gpu W)", "Loop gain", "Stable?", "T_big (C)",
                            "T_skin (C)", "Iters to converge"});
    for (std::size_t i = 0; i < fp_loads.size(); ++i) {
      const AnyResult* r = index.find("thermal/fixed_point/" + std::to_string(i));
      if (!r) continue;
      const auto& l = fp_loads[i];
      const FpArm& arm = r->as<FpArm>();
      const auto& fp = arm.fp;
      fp_table.add_row({common::Table::fmt(l[0], 1) + "/" + common::Table::fmt(l[1], 1) + "/" +
                            common::Table::fmt(l[2], 1),
                        common::Table::fmt(fp.loop_gain, 3), fp.exists ? "yes" : "RUNAWAY",
                        fp.exists ? common::Table::fmt(fp.temperature_c[0], 1) : "-",
                        fp.exists ? common::Table::fmt(fp.temperature_c[4], 1) : "-",
                        std::to_string(arm.iters)});
    }
    fp_table.print(std::cout);

    // Runaway demonstration: crank leakage sensitivity until gain >= 1.
    LeakageModel hot = leak;
    hot.p0_w = {3.5, 0.8, 2.5, 0.0, 0.0};
    hot.k_per_c = {0.12, 0.1, 0.12, 0.0, 0.0};
    const auto runaway = thermal_fixed_point(net, hot, {3.0, 0.8, 2.0, 0.0, 0.0});
    std::printf("\nHigh-leakage corner: loop gain %.2f -> %s (existence condition of [25])\n",
                runaway.loop_gain, runaway.exists ? "stable" : "thermal runaway");
  }

  // ---- Report: skin estimation ----------------------------------------------
  if (const AnyResult* est = index.find("thermal/skin/estimator")) {
    std::puts("\n=== Skin-temperature estimation from internal sensors ===");
    std::printf("Held-out skin-estimation RMSE: %.3f C over %zu samples\n", est->metric("rmse_c"),
                static_cast<std::size_t>(est->metric("samples")));
  }
  bool have_sensors = false;
  for (std::size_t k = 1; k <= 4; ++k)
    have_sensors |= index.has("thermal/skin/sensors/" + std::to_string(k));
  if (have_sensors) {
    common::Table sel({"Budget", "Chosen sensors (node ids)", "Training RMSE (C)"});
    for (std::size_t k = 1; k <= 4; ++k) {
      const AnyResult* r = index.find("thermal/skin/sensors/" + std::to_string(k));
      if (!r) continue;
      const SensorArm& arm = r->as<SensorArm>();
      sel.add_row({std::to_string(k), arm.chosen, common::Table::fmt(arm.rmse_c, 3)});
    }
    std::puts("\nGreedy sensor selection (Zhang et al. style):");
    sel.print(std::cout);
  }

  // ---- Report: thermal power budget ------------------------------------------
  bool have_headroom = false;
  for (double h : horizons)
    have_headroom |= index.has("thermal/headroom/" + common::Table::fmt(h, 0));
  if (have_headroom) {
    std::puts("\n=== Thermal power budgets (throttling input of [24]) ===");
    const auto budget = max_sustainable_power(net, leak, shape);
    std::printf("Max sustainable total power: %.2f W (binding node: %s)\n", budget.total_power_w,
                net.nodes()[budget.binding_node].name.c_str());
    common::Table tr({"Horizon (s)", "Transient headroom (W)"});
    for (double h : horizons) {
      const AnyResult* r = index.find("thermal/headroom/" + common::Table::fmt(h, 0));
      if (!r) continue;
      tr.add_row(common::Table::fmt(h, 0), {r->metric("headroom_w")}, 2);
    }
    tr.print(std::cout);
    std::puts("Transient headroom exceeds the sustainable budget for short horizons");
    std::puts("(thermal capacitance absorbs bursts) and approaches it for long ones.");
  }

  // ---- Report: DRM controllers under a thermal power budget ------------------
  bool have_drm = false;
  for (const auto& [name, factory] : controllers)
    have_drm |= index.has("thermal_drm/free/" + name) && index.has("thermal_drm/budget/" + name);
  if (have_drm) {
    std::puts("\n=== DRM controllers under a thermal power budget ===");
    common::Table drm({"Controller", "E/Oracle free", "E/Oracle budget", "Clamped", "Peak Tj (C)",
                       "Peak Tskin (C)"});
    for (const auto& [name, factory] : controllers) {
      const AnyResult* free = index.find("thermal_drm/free/" + name);
      const AnyResult* con = index.find("thermal_drm/budget/" + name);
      if (!free || !con) continue;
      drm.add_row({name, common::Table::fmt(free->metric("energy_ratio"), 3),
                   common::Table::fmt(con->metric("energy_ratio"), 3),
                   common::Table::fmt(100.0 * con->metric("clamped_snippets") /
                                          con->metric("snippets"),
                                      0) +
                       "%",
                   common::Table::fmt(con->metric("peak_junction_c"), 1),
                   common::Table::fmt(con->metric("peak_skin_c"), 1)});
    }
    drm.print(std::cout);
    std::puts("A binding budget reorders the field: power-hungry policies are clamped");
    std::puts("to the same throttle ceiling, while energy-aware ones keep their edge.");
  }

  // ---- Report: blind vs aware -------------------------------------------------
  bool have_aware = false;
  for (const auto& [name, factories] : learned)
    have_aware |= index.has("thermal_aware/blind/" + name) &&
                  index.has("thermal_aware/aware/" + name);
  if (have_aware) {
    std::puts("\n=== Blind vs thermal-aware controllers under the 1.7 W budget ===");
    common::Table cmp({"Controller", "E/Oracle blind", "E/Oracle aware", "Clamp% blind",
                       "Clamp% aware", "Peak Tskin aware (C)"});
    for (const auto& [name, factories] : learned) {
      const AnyResult* blind = index.find("thermal_aware/blind/" + name);
      const AnyResult* aware = index.find("thermal_aware/aware/" + name);
      if (!blind || !aware) continue;
      const auto clamp_pct = [](const AnyResult& r) {
        return 100.0 * r.metric("clamped_snippets") / r.metric("snippets");
      };
      cmp.add_row({name, common::Table::fmt(blind->metric("energy_ratio"), 3),
                   common::Table::fmt(aware->metric("energy_ratio"), 3),
                   common::Table::fmt(clamp_pct(*blind), 0) + "%",
                   common::Table::fmt(clamp_pct(*aware), 0) + "%",
                   common::Table::fmt(aware->metric("peak_skin_c"), 1)});
    }
    cmp.print(std::cout);
    std::puts("Telemetry closes the loop: an aware policy proposes budget-feasible");
    std::puts("configs instead of being throttled after the fact.");
  }
  return 0;
}
