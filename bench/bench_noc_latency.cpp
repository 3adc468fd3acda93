// Section III-C artifacts: queueing-theoretic NoC latency model accuracy vs
// the packet-level simulator, SVR correction (Qian-style), and the online
// residual adaptation the survey calls for.
//
// Every simulator run is a NocScenario cataloged in a ScenarioRegistry
// ("model/...", "svr/...", "drift/..."); the shared bench driver selects
// arms by prefix and one ExperimentEngine batch executes them in parallel,
// then the fits and adaptation run over the gathered results.  Sections
// whose arms were deselected are skipped.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/driver.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/domain.h"
#include "core/scenario_registry.h"
#include "noc/svr_model.h"

using namespace oal;
using namespace oal::core;
using namespace oal::noc;

namespace {

std::vector<TrafficMatrix> make_traffics(const Mesh& mesh, const std::vector<double>& rates) {
  std::vector<TrafficMatrix> out;
  for (double r : rates) {
    out.push_back(TrafficMatrix::uniform(mesh.num_nodes(), r));
    out.push_back(TrafficMatrix::transpose(mesh.cols(), mesh.rows(), r * 0.8));
    out.push_back(TrafficMatrix::hotspot(mesh.num_nodes(), mesh.num_nodes() / 2, r * 0.7));
    out.push_back(TrafficMatrix::bit_complement(mesh.cols(), mesh.rows(), r * 0.8));
  }
  return out;
}

NocScenario sim_point(const TrafficMatrix& tm, std::uint64_t seed, const NocParams& params,
                      bool run_analytical) {
  NocScenario s;
  s.params = params;
  s.traffic = tm;
  s.sim.seed = seed;
  s.run_analytical = run_analytical;
  return s;
}

std::string key3(const char* group, std::size_t a, std::size_t b) {
  return std::string(group) + "/" + std::to_string(a) + "/" + std::to_string(b);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchDriver driver("noc_latency");
  if (!driver.parse(argc, argv)) return driver.exit_code();

  const Mesh mesh(8, 8);
  const NocParams params;
  NocParams drifted = params;
  drifted.packet_service_cycles = 5.0;  // 25% slower links

  const auto train_traffics = make_traffics(mesh, {0.004, 0.008, 0.012, 0.016, 0.020, 0.024});
  const auto test_traffics = make_traffics(mesh, {0.006, 0.012, 0.018});
  const double rates[] = {0.005, 0.010, 0.015, 0.020, 0.025};
  const char* pattern_names[] = {"uniform", "transpose", "hotspot", "bit-compl"};

  // ---- The catalog: every simulator run in this bench ----------------------
  ScenarioRegistry registry;
  const auto add_point = [&registry](const std::string& name, const TrafficMatrix& tm,
                                     std::uint64_t seed, const NocParams& p, bool analytical) {
    registry.add(name, [tm, seed, p, analytical] { return sim_point(tm, seed, p, analytical); });
  };
  for (std::size_t ri = 0; ri < 5; ++ri) {
    const double rate = rates[ri];
    const TrafficMatrix tms[] = {
        TrafficMatrix::uniform(mesh.num_nodes(), rate),
        TrafficMatrix::transpose(mesh.cols(), mesh.rows(), rate),
        TrafficMatrix::hotspot(mesh.num_nodes(), 27, rate),
        TrafficMatrix::bit_complement(mesh.cols(), mesh.rows(), rate),
    };
    for (std::size_t p = 0; p < 4; ++p)
      add_point(key3("model", ri, p), tms[p], 17 + static_cast<std::uint64_t>(rate * 1e4), params,
                true);
  }
  for (std::size_t i = 0; i < train_traffics.size(); ++i)
    add_point(key3("svr/train", i, 0), train_traffics[i], 100 + i, params, false);
  for (std::size_t i = 0; i < test_traffics.size(); ++i)
    add_point(key3("svr/test", i, 0), test_traffics[i], 500 + i, params, false);
  for (std::size_t i = 0; i < test_traffics.size(); ++i)
    add_point(key3("drift/stale", i, 0), test_traffics[i], 900 + i, drifted, false);
  for (std::size_t epoch = 0; epoch < 3; ++epoch)
    for (std::size_t i = 0; i < test_traffics.size(); ++i)
      add_point(key3("drift/adapt", epoch, i), test_traffics[i], 1200 + 37 * epoch + i, drifted,
                false);
  for (std::size_t i = 0; i < test_traffics.size(); ++i)
    add_point(key3("drift/final", i, 0), test_traffics[i], 2100 + i, drifted, false);

  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine;
  const auto results = engine.run_any(driver.select(registry));
  driver.json().write(driver.bench_name(), results);
  const bench::ResultIndex index(results);
  const auto sim_latency = [&](const std::string& id) {
    return index.find(id)->metric("sim_avg_latency_cycles");
  };

  // ---- Accuracy sweep ------------------------------------------------------
  bool model_family = false;
  for (std::size_t ri = 0; ri < 5 && !model_family; ++ri)
    for (std::size_t p = 0; p < 4 && !model_family; ++p)
      model_family = index.has(key3("model", ri, p));
  if (model_family) {
    std::puts("=== NoC latency: analytical model vs packet-level simulation ===");
    common::Table t({"Traffic", "Rate/node", "Sim (cycles)", "Analytical", "Err (%)", "Max rho"});
    std::vector<double> ana_err;
    for (std::size_t ri = 0; ri < 5; ++ri) {
      for (std::size_t p = 0; p < 4; ++p) {
        const AnyResult* r = index.find(key3("model", ri, p));
        if (!r) continue;  // arm deselected by prefix
        const double sim_lat = r->metric("sim_avg_latency_cycles");
        const double ana_lat = r->metric("ana_avg_latency_cycles");
        const double err = 100.0 * std::abs(ana_lat - sim_lat) / sim_lat;
        ana_err.push_back(err);
        t.add_row({pattern_names[p], common::Table::fmt(rates[ri], 3),
                   common::Table::fmt(sim_lat, 1), common::Table::fmt(ana_lat, 1),
                   common::Table::fmt(err, 1),
                   common::Table::fmt(r->metric("ana_max_link_utilization"), 2)});
      }
    }
    t.print(std::cout);
    std::printf("Analytical model mean error: %.1f%%\n\n", common::mean(ana_err));
  }

  // ---- SVR correction ------------------------------------------------------
  std::vector<std::string> svr_ids;
  for (std::size_t i = 0; i < train_traffics.size(); ++i)
    svr_ids.push_back(key3("svr/train", i, 0));
  std::vector<std::string> test_ids;
  for (std::size_t i = 0; i < test_traffics.size(); ++i) test_ids.push_back(key3("svr/test", i, 0));
  const bool have_train = index.has_all(svr_ids);
  std::vector<double> train_lat;
  if (have_train)
    for (std::size_t i = 0; i < train_traffics.size(); ++i)
      train_lat.push_back(sim_latency(key3("svr/train", i, 0)));
  if (have_train && index.has_all(test_ids)) {
    std::puts("=== SVR-corrected model (Qian et al. construction) ===");
    SvrNocModel svr(mesh, params);
    svr.fit(train_traffics, train_lat);

    std::vector<double> sim_lat, svr_pred, ana_pred;
    for (std::size_t i = 0; i < test_traffics.size(); ++i) {
      sim_lat.push_back(sim_latency(key3("svr/test", i, 0)));
      svr_pred.push_back(svr.predict(test_traffics[i]));
      ana_pred.push_back(svr.analytical(test_traffics[i]));
    }
    std::printf("Held-out MAPE: analytical %.1f%%, SVR-corrected %.1f%%\n",
                common::mape(sim_lat, ana_pred), common::mape(sim_lat, svr_pred));
  }

  // ---- Online adaptation (survey Section III-C closing point) --------------
  // The simulator's service time drifts at "runtime" (e.g. DVFS of the NoC);
  // the offline SVR goes stale, the online residual recovers.  A runtime
  // monitor sees the *same* workloads repeatedly: measure the stale model
  // once, adapt on a few epochs of measurements, re-measure.
  std::vector<std::string> drift_ids;
  for (std::size_t i = 0; i < test_traffics.size(); ++i) {
    drift_ids.push_back(key3("drift/stale", i, 0));
    drift_ids.push_back(key3("drift/final", i, 0));
  }
  for (std::size_t epoch = 0; epoch < 3; ++epoch)
    for (std::size_t i = 0; i < test_traffics.size(); ++i)
      drift_ids.push_back(key3("drift/adapt", epoch, i));
  if (have_train && index.has_all(drift_ids)) {
    SvrNocModel adaptive(mesh, params);
    adaptive.fit(train_traffics, train_lat);
    std::vector<double> stale_err, adapted_err;
    for (std::size_t i = 0; i < test_traffics.size(); ++i) {
      const double measured = sim_latency(key3("drift/stale", i, 0));
      stale_err.push_back(std::abs(adaptive.predict(test_traffics[i]) - measured) / measured *
                          100.0);
    }
    for (std::size_t epoch = 0; epoch < 3; ++epoch)
      for (std::size_t i = 0; i < test_traffics.size(); ++i)
        adaptive.update(test_traffics[i], sim_latency(key3("drift/adapt", epoch, i)));
    for (std::size_t i = 0; i < test_traffics.size(); ++i) {
      const double measured = sim_latency(key3("drift/final", i, 0));
      adapted_err.push_back(std::abs(adaptive.predict(test_traffics[i]) - measured) / measured *
                            100.0);
    }
    std::printf("After a 25%% link-speed drift: stale model error %.1f%%, online-adapted %.1f%%\n",
                common::mean(stale_err), common::mean(adapted_err));
    std::puts("(The RLS residual on top of the offline SVR recovers accuracy after the");
    std::puts("platform drifts — the adaptive NoC modeling the survey calls for.)");
  }
  return 0;
}
