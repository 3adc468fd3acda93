// Thermal-aware power budgeting demo: the Section III-A pipeline end-to-end.
// Estimate skin temperature from internal sensors, compute the sustainable
// power budget, and throttle a synthetic burst workload so neither junction
// nor skin limits are violated.
//
// The closed loop is cataloged as one registry arm and argv goes through the
// shared bench driver (`--ticks` scale-down, `--list`, exit-2 usage errors)
// instead of the old unchecked std::atoi scanning.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/driver.h"
#include "common/table.h"
#include "core/scenario_registry.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"
#include "thermal/skin_estimator.h"

using namespace oal;
using namespace oal::thermal;
using namespace oal::core;

namespace {

struct TraceRow {
  double t_s = 0.0;
  double demand_w = 0.0;
  double granted_w = 0.0;
  double junction_c = 0.0;
  double skin_est_c = 0.0;
  double skin_true_c = 0.0;
};

/// Worker-side payload: the budget summary plus the throttling trace.
struct BudgetDemoRun {
  double budget_w = 0.0;
  std::string binding_node;
  PowerBudgetConfig limits;
  std::vector<TraceRow> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Each tick is 10 s of simulated closed-loop throttling.
  std::size_t ticks = 36;
  bench::BenchDriver driver("thermal_budget_demo");
  driver.add_size_option("--ticks", &ticks, "10 s closed-loop throttling ticks");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  ScenarioRegistry registry;
  const std::string arm = "thermal_budget/closed-loop";
  registry.add(arm, [arm, ticks] {
    return AnyScenario(arm, [arm, ticks] {
      auto net = RcThermalNetwork::mobile_soc();
      LeakageModel leak;
      leak.p0_w = {0.35, 0.08, 0.25, 0.0, 0.0};
      leak.k_per_c = {0.025, 0.02, 0.025, 0.0, 0.0};

      const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
      const PowerBudgetConfig limits;  // 85 C junction, 45 C skin
      const auto budget = max_sustainable_power(net, leak, shape, limits);

      // Train the skin estimator on a calibration run.
      SensorArray sensors({0, 1, 2, 3}, 0.2, 33);
      SkinTemperatureEstimator skin_est(4);
      {
        RcThermalNetwork calib = net;
        common::Rng rng(5);
        std::vector<common::Vec> xs;
        std::vector<double> ys;
        common::Vec p(5, 0.0);
        for (int i = 0; i < 900; ++i) {
          if (i % 60 == 0)
            p = {rng.uniform(0.2, 4.5), rng.uniform(0.1, 1.0), rng.uniform(0.1, 3.0), 0.0, 0.0};
          calib.step(p, 1.0);
          xs.push_back(sensors.read(calib.temperatures()));
          ys.push_back(calib.temperatures()[4]);
        }
        skin_est.fit(xs, ys);
      }

      // Closed-loop run: a bursty workload demands 12 W; the governor caps
      // power at the transient headroom recomputed every 10 s.
      BudgetDemoRun out;
      out.budget_w = budget.total_power_w;
      out.binding_node = net.nodes()[budget.binding_node].name;
      out.limits = limits;
      for (std::size_t tick = 0; tick < ticks; ++tick) {
        const double t_s = static_cast<double>(tick) * 10.0;
        const double demand_w = (tick / 6) % 2 == 0 ? 12.0 : 4.0;
        // Re-evaluate the 10 s transient headroom from the current state.
        const double headroom_scale = transient_power_headroom(net, leak, shape, 10.0, limits);
        const double total_shape = shape[0] + shape[1] + shape[2];
        const double granted_w = std::min(demand_w, headroom_scale * total_shape);
        const double granted_scale = granted_w / total_shape;
        // Apply for 10 s with leakage feedback.
        for (int s = 0; s < 10; ++s) {
          const auto p_leak = leak.leakage(net.temperatures());
          common::Vec p(5, 0.0);
          for (int i = 0; i < 5; ++i) p[i] = granted_scale * shape[i] + p_leak[i];
          net.step(p, 1.0);
        }
        const auto reading = sensors.read(net.temperatures());
        if (tick % 3 == 0) {
          out.rows.push_back(TraceRow{t_s + 10.0, demand_w, granted_w, net.temperatures()[0],
                                      skin_est.estimate(reading), net.temperatures()[4]});
        }
      }
      Metrics m{{"budget_w", out.budget_w},
                {"ticks", static_cast<double>(ticks)},
                {"final_junction_c", net.temperatures()[0]},
                {"final_skin_c", net.temperatures()[4]}};
      return AnyResult(arm, std::move(out), std::move(m));
    });
  });
  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine(driver.engine_options());
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);

  for (const auto& r : results) {
    const BudgetDemoRun& d = r.as<BudgetDemoRun>();
    std::printf("Sustainable budget for this workload shape: %.2f W (binding: %s)\n\n",
                d.budget_w, d.binding_node.c_str());
    std::puts("Closed-loop throttling trace (demand 12 W bursts, 4 W idle):");
    common::Table t({"t (s)", "Demand (W)", "Granted (W)", "T_junction (C)", "T_skin est (C)",
                     "T_skin true (C)"});
    for (const TraceRow& row : d.rows) {
      t.add_row({common::Table::fmt(row.t_s, 0), common::Table::fmt(row.demand_w, 1),
                 common::Table::fmt(row.granted_w, 2), common::Table::fmt(row.junction_c, 1),
                 common::Table::fmt(row.skin_est_c, 1), common::Table::fmt(row.skin_true_c, 1)});
    }
    t.print(std::cout);
    std::printf("\nLimits: junction %.0f C, skin %.0f C — never exceeded; bursts get full\n",
                d.limits.t_max_junction_c, d.limits.t_max_skin_c);
    std::puts("power while cold, then the budget tapers toward the sustainable level.");
  }
  return 0;
}
