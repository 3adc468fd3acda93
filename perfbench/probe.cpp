#include "probe.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/online_il.h"

namespace perfbench {

using namespace oal;

void SpanTotals::merge(const SpanTotals& o) {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    seconds[i] += o.seconds[i];
    calls[i] += o.calls[i];
  }
}

void RepProbe::merge(const ScenarioProbe& p, double scenario_s) {
  const double window_p50 =
      p.decide_ns.size() >= kWindowSteps ? summarize(p.decide_ns).p50_ns : 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (window_p50 > 0.0) window_p50_ns_.push_back(window_p50);
  spans_.merge(p.spans);
  decide_ns_.insert(decide_ns_.end(), p.decide_ns.begin(), p.decide_ns.end());
  retrain_ns_.insert(retrain_ns_.end(), p.retrain_ns.begin(), p.retrain_ns.end());
  ++scenarios_;
  scenario_sum_s_ += scenario_s;
  if (scenario_s > scenario_max_s_) scenario_max_s_ = scenario_s;
}

namespace {

double grouped_percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  const std::size_t i = std::min(sorted.size() - 1, static_cast<std::size_t>(rank));
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), sorted[i]);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), sorted[i]);
  const double below = static_cast<double>(lo - sorted.begin());
  return sorted[i] - 0.5 + (rank - below) / static_cast<double>(hi - lo);
}

}  // namespace

LatencySummary summarize(std::vector<double> ns) {
  LatencySummary s;
  s.samples = ns.size();
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  s.p50_ns = grouped_percentile(ns, 50.0);
  s.p99_ns = grouped_percentile(ns, 99.0);
  return s;
}

core::AnyScenario probed(std::string id, RepProbe& rep,
                         std::function<core::AnyResult(ScenarioProbe&)> body) {
  RepProbe* r = &rep;
  return core::AnyScenario(std::move(id), [r, body = std::move(body)] {
    ScenarioProbe p;
    p.trace = r->trace();
    const auto t0 = Clock::now();
    core::AnyResult out = body(p);
    r->merge(p, p.trace ? seconds_since(t0) : 0.0);
    return out;
  });
}

namespace {

/// Calls f(), timing it into `span` only when the probe traces.
template <typename F>
auto traced_call(ScenarioProbe& p, Span span, F&& f) {
  if (!p.trace) return f();
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    p.spans.add(span, seconds_since(t0));
  } else {
    auto out = f();
    p.spans.add(span, seconds_since(t0));
    return out;
  }
}

double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Records one timed step: into its span (traced runs), and into the
/// decide / retrain samples when the controller is the one under test.
void record_step(ScenarioProbe& p, Span span, bool under_test, bool retrained, double ns) {
  if (p.trace) p.spans.add(span, ns * 1e-9);
  if (!under_test) return;
  (retrained ? p.retrain_ns : p.decide_ns).push_back(ns);
}

class TimedDrmController final : public core::DrmController {
 public:
  TimedDrmController(std::unique_ptr<core::DrmController> inner, Role role, bool under_test,
                     bool has_warmup, ScenarioProbe& probe)
      : inner_(std::move(inner)),
        role_(role),
        under_test_(under_test),
        has_warmup_(has_warmup),
        probe_(&probe),
        il_(dynamic_cast<const core::OnlineIlController*>(inner_.get())) {
    if (role_ == Role::kOnlineIl && il_ == nullptr)
      throw std::logic_error("perfbench: online-IL role on a controller that is not online-IL");
  }

  std::string name() const override { return inner_->name(); }

  soc::SocConfig step(const soc::SnippetResult& result, const soc::SocConfig& executed) override {
    if (!under_test_ && !probe_->trace) return inner_->step(result, executed);
    const std::size_t updates = il_ != nullptr ? il_->policy_updates() : 0;
    const auto t0 = Clock::now();
    const soc::SocConfig next = inner_->step(result, executed);
    const auto t1 = Clock::now();
    const bool retrained = il_ != nullptr && il_->policy_updates() != updates;
    record_step(*probe_, span_of(retrained), under_test_, retrained, ns_between(t0, t1));
    return next;
  }

  void observe_telemetry(const soc::ThermalTelemetry& telemetry) override {
    inner_->observe_telemetry(telemetry);
  }
  std::optional<soc::SocConfig> last_policy_decision() const override {
    return inner_->last_policy_decision();
  }
  void begin_run(const soc::SocConfig& initial) override {
    ++runs_;
    inner_->begin_run(initial);
  }

  const core::DrmController& inner() const { return *inner_; }

 private:
  Span span_of(bool retrained) const {
    switch (role_) {
      case Role::kOnlineIl:
        return retrained ? Span::kIlRetrain : Span::kIlStep;
      case Role::kRl:
        // ExperimentEngine::run_scenario runs the warmup trace first.
        return has_warmup_ && runs_ == 1 ? Span::kRlWarmupStep : Span::kRlStep;
      case Role::kNmpc:
        return Span::kNmpcStep;
      case Role::kGovernor:
        break;
    }
    return Span::kGovStep;
  }

  std::unique_ptr<core::DrmController> inner_;
  Role role_;
  bool under_test_;
  bool has_warmup_;
  ScenarioProbe* probe_;
  const core::OnlineIlController* il_;
  std::size_t runs_ = 0;
};

class TimedGpuController final : public core::GpuController {
 public:
  TimedGpuController(std::unique_ptr<core::GpuController> inner, Role role, bool under_test,
                     ScenarioProbe& probe)
      : inner_(std::move(inner)),
        span_(role == Role::kNmpc ? Span::kNmpcStep : Span::kGovStep),
        under_test_(under_test),
        probe_(&probe) {}

  std::string name() const override { return inner_->name(); }

  gpu::GpuConfig step(const gpu::FrameResult& result, const gpu::GpuConfig& current,
                      std::size_t frame_index) override {
    if (!under_test_ && !probe_->trace) return inner_->step(result, current, frame_index);
    const auto t0 = Clock::now();
    const gpu::GpuConfig next = inner_->step(result, current, frame_index);
    const auto t1 = Clock::now();
    record_step(*probe_, span_, under_test_, false, ns_between(t0, t1));
    return next;
  }

  void observe_telemetry(const soc::ThermalTelemetry& telemetry) override {
    inner_->observe_telemetry(telemetry);
  }
  void begin_run(const gpu::GpuConfig& initial) override { inner_->begin_run(initial); }
  std::size_t decision_evals() const override { return inner_->decision_evals(); }

 private:
  std::unique_ptr<core::GpuController> inner_;
  Span span_;
  bool under_test_;
  ScenarioProbe* probe_;
};

}  // namespace

const core::DrmController& unwrap(const core::DrmController& ctl) {
  const auto* wrapped = dynamic_cast<const TimedDrmController*>(&ctl);
  return wrapped != nullptr ? wrapped->inner() : ctl;
}

core::ControllerFactory timed(core::ControllerFactory inner, Role role, bool under_test,
                              ScenarioProbe& probe) {
  ScenarioProbe* p = &probe;
  return [inner = std::move(inner), role, under_test, p](core::ScenarioContext& ctx) {
    core::ControllerInstance ci =
        role == Role::kOnlineIl ? traced_call(*p, Span::kIlFactory, [&] { return inner(ctx); })
                                : inner(ctx);
    if (!ci.controller) return ci;  // the engine reports the missing controller
    if (under_test) p->decide_ns.reserve(p->decide_ns.size() + ctx.scenario.trace.size());
    ci.controller = std::make_unique<TimedDrmController>(
        std::move(ci.controller), role, under_test, !ctx.scenario.warmup.empty(), *p);
    return ci;
  };
}

core::GpuControllerFactory timed(core::GpuControllerFactory inner, Role role, bool under_test,
                                 ScenarioProbe& probe) {
  ScenarioProbe* p = &probe;
  return [inner = std::move(inner), role, under_test, p](core::GpuScenarioContext& ctx) {
    core::GpuControllerInstance ci =
        role == Role::kNmpc ? traced_call(*p, Span::kNmpcFactory, [&] { return inner(ctx); })
                            : inner(ctx);
    if (!ci.controller) return ci;
    if (under_test) p->decide_ns.reserve(p->decide_ns.size() + ctx.scenario.trace.size());
    ci.controller =
        std::make_unique<TimedGpuController>(std::move(ci.controller), role, under_test, *p);
    return ci;
  };
}

core::AnyResult run_thermal_drm(const core::Scenario& s,
                                const soc::ThermalConstraintParams& thermal,
                                ScenarioProbe& probe) {
  ScenarioProbe* p = &probe;
  std::shared_ptr<soc::ThermalSocAdapter> adapter;
  core::ScenarioResult base = core::ExperimentEngine::run_scenario(
      s, [&adapter, &thermal, p](soc::BigLittlePlatform& platform, core::RunnerOptions& opts) {
        adapter = std::make_shared<soc::ThermalSocAdapter>(platform, thermal);
        opts.arbiter = [a = adapter.get(), p](const soc::SnippetDescriptor& snip,
                                              const soc::SocConfig& proposed) {
          return traced_call(*p, Span::kThermalArbitrate,
                             [&] { return a->arbitrate(snip, proposed); });
        };
        opts.observer = [a = adapter.get(), p](const soc::SnippetDescriptor& snip,
                                               const soc::SocConfig& applied,
                                               const soc::SnippetResult& r) {
          traced_call(*p, Span::kThermalObserve, [&] { a->observe(snip, applied, r); });
        };
        opts.telemetry = [a = adapter.get()] { return a->telemetry(); };
      });

  core::ThermalRunResult result;
  result.run = std::move(base.run);
  result.clamped_snippets = adapter->clamped_snippets();
  result.peak_junction_c = adapter->peak_junction_c();
  result.peak_skin_c = adapter->peak_skin_c();
  result.final_budget_w = adapter->budget_w();

  core::Metrics m = core::drm_metrics(result.run);
  m.emplace_back("clamped_snippets", static_cast<double>(result.clamped_snippets));
  m.emplace_back("peak_junction_c", result.peak_junction_c);
  m.emplace_back("peak_skin_c", result.peak_skin_c);
  m.emplace_back("final_budget_w", result.final_budget_w);
  for (core::Metric& e : base.extra) m.push_back(std::move(e));
  return core::AnyResult(s.id, std::move(result), std::move(m));
}

core::AnyResult run_thermal_gpu(const core::GpuScenario& s,
                                const soc::ThermalGpuConstraintParams& thermal,
                                ScenarioProbe& probe) {
  if (!s.make_controller)
    throw std::invalid_argument("perfbench: GPU scenario '" + s.id + "' has no factory");
  gpu::GpuPlatform platform(s.platform, s.platform_noise_seed);
  common::Rng rng(s.seed);
  core::GpuScenarioContext ctx{s, platform, rng};
  core::GpuControllerInstance instance = s.make_controller(ctx);
  if (!instance.controller)
    throw std::invalid_argument("perfbench: GPU factory for '" + s.id + "' returned no controller");

  ScenarioProbe* p = &probe;
  soc::ThermalGpuAdapter adapter(platform, 1.0 / s.fps_target, thermal);
  core::GpuRunnerHooks hooks;
  hooks.arbiter = [a = &adapter, p](const gpu::FrameDescriptor& f,
                                    const gpu::GpuConfig& proposed) {
    return traced_call(*p, Span::kThermalArbitrate, [&] { return a->arbitrate(f, proposed); });
  };
  hooks.observer = [a = &adapter, p](const gpu::FrameDescriptor& f, const gpu::GpuConfig& applied,
                                     const gpu::FrameResult& r) {
    traced_call(*p, Span::kThermalObserve, [&] { a->observe(f, applied, r); });
  };
  hooks.telemetry = [a = &adapter] { return a->telemetry(); };
  core::GpuRunner runner(platform, s.fps_target, std::move(hooks));

  core::ThermalGpuRunResult result;
  result.run = runner.run(s.trace, *instance.controller, s.initial);
  if (s.on_complete) s.on_complete(*instance.controller, result.run);
  result.clamped_frames = adapter.clamped_frames();
  result.peak_junction_c = adapter.peak_junction_c();
  result.peak_skin_c = adapter.peak_skin_c();
  result.final_budget_w = adapter.budget_w();

  const core::GpuRunResult& run = result.run;
  core::Metrics m{{"frames", static_cast<double>(run.frames)},
                  {"gpu_energy_j", run.gpu_energy_j},
                  {"pkg_energy_j", run.pkg_energy_j},
                  {"pkg_dram_energy_j", run.pkg_dram_energy_j},
                  {"miss_rate", run.miss_rate()},
                  {"freq_changes", static_cast<double>(run.freq_changes)},
                  {"slice_changes", static_cast<double>(run.slice_changes)},
                  {"transition_energy_j", run.transition_energy_j},
                  {"decision_evals", static_cast<double>(run.decision_evals)},
                  {"clamped_frames", static_cast<double>(result.clamped_frames)},
                  {"peak_junction_c", result.peak_junction_c},
                  {"peak_skin_c", result.peak_skin_c},
                  {"final_budget_w", result.final_budget_w}};
  return core::AnyResult(s.id, std::move(result), std::move(m));
}

}  // namespace perfbench
