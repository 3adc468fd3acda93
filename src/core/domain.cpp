#include "core/domain.h"

#include <cmath>

namespace oal::core {

double AnyResult::metric(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.first == name) return m.second;
  throw std::invalid_argument("AnyResult::metric: '" + id_ + "' has no metric '" + name + "'");
}

bool AnyResult::has_metric(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.first == name) return true;
  return false;
}

Metrics drm_metrics(const RunResult& run) {
  Metrics m;
  m.emplace_back("snippets", static_cast<double>(run.records.size()));
  m.emplace_back("total_energy_j", run.total_energy_j());
  m.emplace_back("total_time_s", run.total_time_s());
  const double oracle_e = run.oracle_energy_j();
  if (oracle_e > 0.0) {
    m.emplace_back("oracle_energy_j", oracle_e);
    m.emplace_back("energy_ratio", run.energy_ratio());
  }
  return m;
}

namespace {

Metrics gpu_metrics(const GpuRunResult& run) {
  return {{"frames", static_cast<double>(run.frames)},
          {"gpu_energy_j", run.gpu_energy_j},
          {"pkg_energy_j", run.pkg_energy_j},
          {"pkg_dram_energy_j", run.pkg_dram_energy_j},
          {"miss_rate", run.miss_rate()},
          {"freq_changes", static_cast<double>(run.freq_changes)},
          {"slice_changes", static_cast<double>(run.slice_changes)},
          {"transition_energy_j", run.transition_energy_j},
          {"decision_evals", static_cast<double>(run.decision_evals)}};
}

Metrics noc_metrics(const NocScenario& s, const NocRunResult& run) {
  Metrics m;
  if (s.run_simulation) {
    m.emplace_back("sim_avg_latency_cycles", run.sim.avg_latency_cycles);
    m.emplace_back("sim_p95_latency_cycles", run.sim.p95_latency_cycles);
    m.emplace_back("sim_avg_hops", run.sim.avg_hops);
    m.emplace_back("sim_packets_measured", static_cast<double>(run.sim.packets_measured));
    m.emplace_back("sim_delivered_rate", run.sim.delivered_rate);
  }
  if (s.run_analytical) {
    m.emplace_back("ana_avg_latency_cycles", run.analytical.avg_latency_cycles);
    m.emplace_back("ana_max_link_utilization", run.analytical.max_link_utilization);
    m.emplace_back("ana_saturated", run.analytical.saturated ? 1.0 : 0.0);
  }
  if (s.run_simulation && s.run_analytical && run.sim.avg_latency_cycles > 0.0) {
    m.emplace_back("ana_error_pct",
                   100.0 *
                       std::abs(run.analytical.avg_latency_cycles - run.sim.avg_latency_cycles) /
                       run.sim.avg_latency_cycles);
  }
  return m;
}

/// Shared GPU frame-loop protocol (factory checks, scenario-private platform
/// + Rng, on_complete); `customize` binds hooks to this scenario's platform
/// instance — the GPU analogue of ExperimentEngine::run_scenario's
/// RunCustomizer.
using GpuRunCustomizer = std::function<void(gpu::GpuPlatform&, GpuRunnerHooks&)>;
GpuRunResult run_gpu_with_hooks(const GpuScenario& s, const GpuRunCustomizer& customize) {
  if (!s.make_controller)
    throw std::invalid_argument("ExperimentEngine: GPU scenario '" + s.id + "' has no factory");
  gpu::GpuPlatform platform(s.platform, s.platform_noise_seed);
  common::Rng rng(s.seed);
  GpuScenarioContext ctx{s, platform, rng};
  GpuControllerInstance instance = s.make_controller(ctx);
  if (!instance.controller)
    throw std::invalid_argument("ExperimentEngine: GPU factory for '" + s.id +
                                "' returned no controller");
  GpuRunnerHooks hooks;
  if (customize) customize(platform, hooks);
  GpuRunner runner(platform, s.fps_target, std::move(hooks));
  GpuRunResult run = runner.run(s.trace, *instance.controller, s.initial);
  if (s.on_complete) s.on_complete(*instance.controller, run);
  return run;
}

AnyResult run_gpu_scenario(const GpuScenario& s) {
  GpuRunResult run = run_gpu_with_hooks(s, nullptr);
  Metrics m = gpu_metrics(run);
  return AnyResult(s.id, std::move(run), std::move(m));
}

/// The four-metric tail both thermal domains report: copies the adapter's
/// peaks and final budget into `result`, then appends the clamp count
/// (`clamp_metric`), the peaks and the final budget to `m`.
template <class Adapter, class Result>
void add_thermal_tail(const Adapter& adapter, const char* clamp_metric, std::size_t clamped,
                      Result& result, Metrics& m) {
  result.peak_junction_c = adapter.peak_junction_c();
  result.peak_skin_c = adapter.peak_skin_c();
  result.final_budget_w = adapter.budget_w();
  m.emplace_back(clamp_metric, static_cast<double>(clamped));
  m.emplace_back("peak_junction_c", result.peak_junction_c);
  m.emplace_back("peak_skin_c", result.peak_skin_c);
  m.emplace_back("final_budget_w", result.final_budget_w);
}

AnyResult run_thermal_gpu_scenario(const ThermalGpuScenario& s) {
  std::shared_ptr<soc::ThermalGpuAdapter> adapter;
  GpuRunResult base_run = run_gpu_with_hooks(
      s.base, [&adapter, &s](gpu::GpuPlatform& platform, GpuRunnerHooks& hooks) {
        adapter = std::make_shared<soc::ThermalGpuAdapter>(platform, 1.0 / s.base.fps_target,
                                                           s.thermal);
        hooks.arbiter = [adapter](const gpu::FrameDescriptor& f, const gpu::GpuConfig& proposed) {
          return adapter->arbitrate(f, proposed);
        };
        hooks.observer = [adapter](const gpu::FrameDescriptor& f, const gpu::GpuConfig& applied,
                                   const gpu::FrameResult& r) { adapter->observe(f, applied, r); };
        // Read-only channel: thermal-aware controllers (NmpcConfig::
        // thermal_aware) observe it; blind controllers ignore it, keeping
        // their runs bitwise identical.
        hooks.telemetry = [adapter] { return adapter->telemetry(); };
      });

  ThermalGpuRunResult result;
  result.run = std::move(base_run);
  result.clamped_frames = adapter->clamped_frames();
  Metrics m = gpu_metrics(result.run);
  add_thermal_tail(*adapter, "clamped_frames", result.clamped_frames, result, m);
  return AnyResult(s.base.id, std::move(result), std::move(m));
}

AnyResult run_noc_scenario(const NocScenario& s) {
  const noc::Mesh mesh(s.mesh_cols, s.mesh_rows);
  NocRunResult run;
  if (s.run_simulation) {
    const noc::NocSimulator sim(mesh, s.params);
    run.sim = sim.simulate(s.traffic, s.sim);
  }
  if (s.run_analytical) {
    const noc::AnalyticalNocModel model(mesh, s.params);
    run.analytical = model.evaluate(s.traffic);
  }
  Metrics m = noc_metrics(s, run);
  return AnyResult(s.id, std::move(run), std::move(m));
}

AnyResult run_thermal_scenario(const ThermalDrmScenario& s) {
  // Reuses run_scenario's full protocol (factory checks, warmup — which
  // stays unconstrained — options wiring); the customizer binds a
  // scenario-private thermal adapter to the platform run_scenario builds.
  std::shared_ptr<soc::ThermalSocAdapter> adapter;
  ScenarioResult base_result = ExperimentEngine::run_scenario(
      s.base, [&adapter, &s](soc::BigLittlePlatform& platform, RunnerOptions& opts) {
        adapter = std::make_shared<soc::ThermalSocAdapter>(platform, s.thermal);
        opts.arbiter = [adapter](const soc::SnippetDescriptor& snip,
                                 const soc::SocConfig& proposed) {
          return adapter->arbitrate(snip, proposed);
        };
        opts.observer = [adapter](const soc::SnippetDescriptor& snip,
                                  const soc::SocConfig& applied, const soc::SnippetResult& r) {
          adapter->observe(snip, applied, r);
        };
        // Read-only channel: thermal-aware controllers observe it; blind
        // controllers ignore it, keeping their runs bitwise identical.
        opts.telemetry = [adapter] { return adapter->telemetry(); };
      });

  ThermalRunResult result;
  result.run = std::move(base_result.run);
  result.clamped_snippets = adapter->clamped_snippets();
  Metrics m = drm_metrics(result.run);
  add_thermal_tail(*adapter, "clamped_snippets", result.clamped_snippets, result, m);
  for (Metric& e : base_result.extra) m.push_back(std::move(e));
  return AnyResult(s.base.id, std::move(result), std::move(m));
}

}  // namespace

AnyScenario::AnyScenario(std::string id, std::function<AnyResult()> run)
    : id_(std::move(id)), run_(std::move(run)) {}

AnyScenario::AnyScenario(Scenario s) : id_(s.id) {
  auto sp = std::make_shared<const Scenario>(std::move(s));
  run_ = [sp] {
    ScenarioResult r = ExperimentEngine::run_scenario(*sp);
    Metrics m = drm_metrics(r.run);
    for (Metric& e : r.extra) m.push_back(std::move(e));
    return AnyResult(r.id, std::move(r.run), std::move(m));
  };
}

AnyScenario::AnyScenario(GpuScenario s) : id_(s.id) {
  auto sp = std::make_shared<const GpuScenario>(std::move(s));
  run_ = [sp] { return run_gpu_scenario(*sp); };
}

AnyScenario::AnyScenario(NocScenario s) : id_(s.id) {
  auto sp = std::make_shared<const NocScenario>(std::move(s));
  run_ = [sp] { return run_noc_scenario(*sp); };
}

AnyScenario::AnyScenario(ThermalDrmScenario s) : id_(s.base.id) {
  auto sp = std::make_shared<const ThermalDrmScenario>(std::move(s));
  run_ = [sp] { return run_thermal_scenario(*sp); };
}

AnyScenario::AnyScenario(ThermalGpuScenario s) : id_(s.base.id) {
  auto sp = std::make_shared<const ThermalGpuScenario>(std::move(s));
  run_ = [sp] { return run_thermal_gpu_scenario(*sp); };
}

AnyScenario AnyScenario::renamed(std::string id) const {
  AnyScenario out;
  out.id_ = id;
  if (run_) {
    // The inner closure bakes the original id into its AnyResult; rewrite it
    // on the way out so callers only ever see the imposed name.
    out.run_ = [inner = run_, id = std::move(id)] {
      AnyResult r = inner();
      r.id_ = id;
      return r;
    };
  }
  return out;
}

AnyResult AnyScenario::run() const {
  if (!run_) throw std::logic_error("AnyScenario::run: empty scenario");
  return run_();
}

}  // namespace oal::core
