#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/artifact_store.h"
#include "core/jsonl_compare.h"
#include "core/online_il.h"
#include "core/oracle.h"
#include "core/rl_controller.h"
#include "core/scenario_factories.h"
#include "fleet/aggregator.h"
#include "fleet/device_population.h"
#include "workloads/cpu_benchmarks.h"
#include "workloads/gpu_benchmarks.h"

namespace perfbench {

using namespace oal;
using core::AnyResult;
using core::AnyScenario;
using core::Metrics;

std::uint64_t stream_seed(std::uint64_t workload_seed, std::uint64_t protocol_seed) {
  if (workload_seed == 0) return protocol_seed;
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL + protocol_seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// ---- shared helpers --------------------------------------------------------

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Name-by-name bitwise comparison; appends one line per mismatch.
void compare_metrics(const std::string& what, const Metrics& ref, const Metrics& got,
                     std::vector<std::string>& out) {
  if (ref.size() != got.size()) {
    out.push_back(what + ": " + std::to_string(ref.size()) + " metrics vs " +
                  std::to_string(got.size()));
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].first != got[i].first || !same_bits(ref[i].second, got[i].second))
      out.push_back(what + ": " + ref[i].first + "=" + fmt(ref[i].second) + " vs " +
                    got[i].first + "=" + fmt(got[i].second));
  }
}

void compare_drm_records(const std::string& what, const core::RunResult& ref,
                         const core::RunResult& got, std::vector<std::string>& out) {
  if (ref.records.size() != got.records.size()) {
    out.push_back(what + ": record counts differ");
    return;
  }
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    const core::SnippetRecord& a = ref.records[i];
    const core::SnippetRecord& b = got.records[i];
    if (!(a.applied == b.applied) || a.policy_decision != b.policy_decision ||
        !(a.oracle == b.oracle) || !same_bits(a.energy_j, b.energy_j) ||
        !same_bits(a.oracle_energy_j, b.oracle_energy_j)) {
      out.push_back(what + ": record " + std::to_string(i) + " differs");
      return;
    }
  }
  if (ref.decision_latency.decisions != got.decision_latency.decisions)
    out.push_back(what + ": decision counts differ");
}

const AnyResult& find_result(const std::vector<AnyResult>& results, const std::string& id) {
  for (const AnyResult& r : results)
    if (r.id() == id) return r;
  throw std::logic_error("perfbench: no result '" + id + "'");
}

/// Which scenarios of a repetition failed a check, and why.
class Checks {
 public:
  void fail(const std::string& scenario, const std::string& what) {
    failed_.insert(scenario);
    lines_.push_back(scenario + ": " + what);
  }
  void expect(bool ok, const std::string& scenario, const std::string& what) {
    if (!ok) fail(scenario, what);
  }
  /// A failed batch-level check fails every scenario of the repetition.
  void fail_batch(const std::string& what) {
    batch_failed_ = true;
    lines_.push_back("batch: " + what);
  }
  void into(RepResult& r) const {
    r.failed = batch_failed_ ? r.attempted : std::min(failed_.size(), r.attempted);
    r.failures = lines_;
  }

 private:
  std::set<std::string> failed_;
  std::vector<std::string> lines_;
  bool batch_failed_ = false;
};

/// Per-layer metrics every workload reports from its RepProbe.  Layers a
/// workload does not exercise read 0.
Metrics probe_layers(const RepProbe& probe, double run_s, std::size_t workers) {
  const SpanTotals& s = probe.spans();
  double attributed = 0.0;
  for (double v : s.seconds) attributed += v;
  const auto count = [&s](Span span) { return static_cast<double>(s.calls_of(span)); };
  return {
      {"engine.scenarios", static_cast<double>(probe.scenarios())},
      {"engine.busy_frac", probe.scenario_sum_s() / (run_s * static_cast<double>(workers))},
      {"engine.scenario_max_s", probe.scenario_max_s()},
      {"il.factory_s", s.seconds_of(Span::kIlFactory)},
      {"il.steps", count(Span::kIlStep)},
      {"il.step_s", s.seconds_of(Span::kIlStep)},
      {"il.retrains", count(Span::kIlRetrain)},
      {"il.retrain_s", s.seconds_of(Span::kIlRetrain)},
      {"rl.warmup_steps", count(Span::kRlWarmupStep)},
      {"rl.warmup_s", s.seconds_of(Span::kRlWarmupStep)},
      {"rl.steps", count(Span::kRlStep)},
      {"rl.step_s", s.seconds_of(Span::kRlStep)},
      {"nmpc.factory_s", s.seconds_of(Span::kNmpcFactory)},
      {"nmpc.steps", count(Span::kNmpcStep)},
      {"nmpc.step_s", s.seconds_of(Span::kNmpcStep)},
      {"gov.steps", count(Span::kGovStep)},
      {"gov.step_s", s.seconds_of(Span::kGovStep)},
      {"thermal.observe_calls", count(Span::kThermalObserve)},
      {"thermal.observe_s", s.seconds_of(Span::kThermalObserve)},
      {"thermal.arbitrate_calls", count(Span::kThermalArbitrate)},
      {"thermal.arbitrate_s", s.seconds_of(Span::kThermalArbitrate)},
      // Scenario time no other span covers: platform execute/render, the
      // runner's Oracle lookups, trivial factories and the probes themselves.
      {"runner.self_s", probe.scenario_sum_s() - attributed},
  };
}

void add_decide(const RepProbe& probe, RepResult& out) {
  out.decide = summarize(probe.decide_ns());
  const std::vector<double>& windows = probe.window_p50_ns();
  out.decide_best_p50_ns =
      windows.empty() ? out.decide.p50_ns : *std::min_element(windows.begin(), windows.end());
}

void add_oracle_layers(const core::OracleCache& cache, Metrics& layers) {
  const double lookups = static_cast<double>(cache.lookups());
  layers.emplace_back("oracle.lookups", lookups);
  layers.emplace_back("oracle.searches", static_cast<double>(cache.searches()));
  layers.emplace_back("oracle.hit_ratio",
                      lookups > 0.0 ? static_cast<double>(cache.hits()) / lookups : 0.0);
}

// ---- online_il_adapt: the Fig. 3 protocol -----------------------------------

constexpr std::size_t kSequenceSnippets = 2500;  // Cortex + PARSEC default lengths
const std::size_t kIlUpdates = kSequenceSnippets / core::OnlineIlConfig{}.buffer_capacity;
constexpr std::size_t kCollectPerApp = 40;
constexpr std::size_t kCollectConfigs = 6;
constexpr std::size_t kCheckSnippets = 300;
const char* const kIlId = "online_il/il";
const char* const kRlId = "online_il/rl";

struct DrmInputs {
  std::vector<workloads::AppSpec> mibench;
  std::vector<soc::SnippetDescriptor> sequence;  ///< Cortex + PARSEC, recorded
  std::vector<soc::SnippetDescriptor> warmup;    ///< MiBench, RL pre-training
};

DrmInputs drm_inputs(std::uint64_t seed) {
  DrmInputs in;
  in.mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
  using workloads::CpuBenchmarks;
  std::vector<workloads::AppSpec> online = CpuBenchmarks::of_suite(workloads::Suite::kCortex);
  for (auto& a : CpuBenchmarks::of_suite(workloads::Suite::kParsec)) online.push_back(std::move(a));
  common::Rng seq_rng(stream_seed(seed, 99));
  in.sequence = workloads::CpuBenchmarks::sequence(online, seq_rng);
  common::Rng warm_rng(stream_seed(seed, 11));
  in.warmup = workloads::CpuBenchmarks::sequence(in.mibench, warm_rng);
  return in;
}

core::Scenario drm_arm(std::string id, std::vector<soc::SnippetDescriptor> trace,
                       std::shared_ptr<core::OracleCache> cache) {
  core::Scenario s;
  s.id = std::move(id);
  s.trace = std::move(trace);
  s.oracle_cache = std::move(cache);
  return s;
}

core::ControllerFactory rl_factory() {
  return [](core::ScenarioContext& ctx) {
    return core::ControllerInstance{
        std::make_unique<core::QLearningController>(ctx.platform.space()), nullptr};
  };
}

/// Fig. 3's convergence point: end of the first 100-decision window with
/// >= 90% big-frequency accuracy (+/-1 OPP); -1 when no window reaches it.
double convergence_s(const core::RunResult& run) {
  const std::size_t window = 100;
  for (std::size_t w0 = 0; w0 + window <= run.records.size(); w0 += window)
    if (run.big_freq_accuracy(w0, w0 + window, 1) >= 0.9)
      return run.records[w0 + window - 1].start_time_s;
  return -1.0;
}

/// The checked-in fig3 baseline values seed 0 must reproduce, named as in
/// RepResult::simulated.
Metrics load_fig3(const std::string& path) {
  const std::vector<core::JsonlRecord> records = core::read_jsonl_file(path);
  const auto value = [&records](const std::string& id, const std::string& metric) {
    for (const core::JsonlRecord& r : records) {
      if (r.id != id) continue;
      if (const double* v = find_metric(r.metrics, metric)) return *v;
    }
    throw std::runtime_error("fig3 baseline has no " + id + " " + metric);
  };
  return {{"energy_ratio", value("fig3/il", "energy_ratio")},
          {"rl_energy_ratio", value("fig3/rl", "energy_ratio")},
          {"convergence_s", value("fig3/summary", "convergence_t_s")},
          {"policy_updates", value("fig3/summary", "policy_updates")},
          {"oracle.lookups", value("fig3_convergence/oracle_stats", "lookups")},
          {"oracle.searches", value("fig3_convergence/oracle_stats", "searches")}};
}

class OnlineIlAdapt final : public Workload {
 public:
  explicit OnlineIlAdapt(const Options& opt) : opt_(opt) {
    if (opt_.seed != 0) return;  // the bitwise baseline holds at the protocol seeds only
    try {
      fig3_ = load_fig3(opt_.fig3_baseline);
    } catch (const std::exception& e) {
      fig3_error_ = e.what();
    }
  }

  std::size_t wiring_scenarios() const override { return 4; }

  std::vector<std::string> check_wiring() override {
    // A short version of the protocol: the first 300 decisions of each arm
    // after a small offline collection, library factories vs timed ones.
    const DrmInputs in = drm_inputs(opt_.seed);
    const std::vector<soc::SnippetDescriptor> trace(
        in.sequence.begin(), in.sequence.begin() + static_cast<std::ptrdiff_t>(kCheckSnippets));
    const std::vector<soc::SnippetDescriptor> warmup(
        in.warmup.begin(), in.warmup.begin() + static_cast<std::ptrdiff_t>(kCheckSnippets));
    core::ExperimentEngine engine;
    auto cache = std::make_shared<core::OracleCache>(nullptr, &engine.pool());
    soc::BigLittlePlatform plat;
    common::Rng collect_rng(stream_seed(opt_.seed, 7));
    auto off = std::make_shared<const core::OfflineData>(
        core::collect_offline_data(plat, in.mibench, core::Objective::kEnergy, 8, 2, collect_rng,
                                   cache.get(), false, &engine.pool()));
    core::Scenario il = drm_arm("check/il", trace, cache);
    il.make_controller = core::online_il_factory(off, stream_seed(opt_.seed, 5));
    core::Scenario rl = drm_arm("check/rl", trace, cache);
    rl.warmup = warmup;
    rl.make_controller = rl_factory();

    const std::vector<AnyResult> ref = engine.run_any({il, rl});
    RepProbe probe(/*trace=*/true);
    const std::vector<AnyResult> got = engine.run_any(
        {probed("check/il", probe,
                [&il](ScenarioProbe& p) {
                  core::Scenario s = il;
                  s.make_controller = timed(il.make_controller, Role::kOnlineIl, true, p);
                  return AnyScenario(std::move(s)).run();
                }),
         probed("check/rl", probe, [&rl](ScenarioProbe& p) {
           core::Scenario s = rl;
           s.make_controller = timed(rl.make_controller, Role::kRl, false, p);
           return AnyScenario(std::move(s)).run();
         })});
    std::vector<std::string> out;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      compare_metrics(ref[i].id(), ref[i].metrics(), got[i].metrics(), out);
      compare_drm_records(ref[i].id(), ref[i].as<core::RunResult>(), got[i].as<core::RunResult>(),
                          out);
    }
    return out;
  }

  RepResult run_rep(bool trace) override {
    RepResult out;
    const auto t_setup = Clock::now();
    const DrmInputs in = drm_inputs(opt_.seed);
    core::ExperimentEngine engine;
    auto cache = std::make_shared<core::OracleCache>(nullptr, &engine.pool());
    soc::BigLittlePlatform plat;
    out.setup_s = seconds_since(t_setup);

    RepProbe probe(trace);
    const std::uint64_t train_seed = stream_seed(opt_.seed, 5);
    std::shared_ptr<const core::OfflineData> off;  // collected inside the timed run
    std::size_t il_updates = 0;
    const std::vector<AnyScenario> batch{
        probed(kIlId, probe,
               [&](ScenarioProbe& p) {
                 core::Scenario s = drm_arm(kIlId, in.sequence, cache);
                 s.make_controller =
                     timed(core::online_il_factory(off, train_seed), Role::kOnlineIl, true, p);
                 s.on_complete = [&il_updates](core::DrmController& ctl, const core::RunResult&) {
                   il_updates =
                       dynamic_cast<const core::OnlineIlController&>(unwrap(ctl)).policy_updates();
                 };
                 return AnyScenario(std::move(s)).run();
               }),
        probed(kRlId, probe, [&](ScenarioProbe& p) {
          core::Scenario s = drm_arm(kRlId, in.sequence, cache);
          s.warmup = in.warmup;
          s.make_controller = timed(rl_factory(), Role::kRl, false, p);
          return AnyScenario(std::move(s)).run();
        })};
    out.attempted = batch.size();

    Checks checks;
    double collect_s = 0.0;
    const auto t_run = Clock::now();
    try {
      common::Rng collect_rng(stream_seed(opt_.seed, 7));
      off = std::make_shared<const core::OfflineData>(core::collect_offline_data(
          plat, in.mibench, core::Objective::kEnergy, kCollectPerApp, kCollectConfigs, collect_rng,
          cache.get(), false, &engine.pool()));
      collect_s = seconds_since(t_run);
      const std::vector<AnyResult> results = engine.run_any(batch);
      out.run_s = seconds_since(t_run);

      const auto& il = find_result(results, kIlId).as<core::RunResult>();
      const auto& rl = find_result(results, kRlId).as<core::RunResult>();
      checks.expect(in.sequence.size() == kSequenceSnippets, kIlId,
                    "sequence has " + std::to_string(in.sequence.size()) + " snippets");
      for (const AnyResult& r : results) {
        const core::RunResult& run = r.as<core::RunResult>();
        checks.expect(run.records.size() == kSequenceSnippets, r.id(),
                      std::to_string(run.records.size()) + " records");
        checks.expect(run.decision_latency.decisions == kSequenceSnippets, r.id(),
                      std::to_string(run.decision_latency.decisions) + " decisions");
      }
      checks.expect(il_updates == kIlUpdates, kIlId,
                    std::to_string(il_updates) + " policy updates");
      checks.expect(probe.retrain_ns().size() == il_updates &&
                        probe.decide_ns().size() + il_updates == il.records.size(),
                    kIlId, "retrain classification does not add up");
      out.simulated = {{"energy_ratio", il.energy_ratio()},
                       {"rl_energy_ratio", rl.energy_ratio()},
                       {"convergence_s", convergence_s(il)},
                       {"policy_updates", static_cast<double>(il_updates)},
                       {"il.decisions", static_cast<double>(il.decision_latency.decisions)},
                       {"rl.decisions", static_cast<double>(rl.decision_latency.decisions)},
                       {"oracle.lookups", static_cast<double>(cache->lookups())},
                       {"oracle.searches", static_cast<double>(cache->searches())}};
      if (opt_.seed == 0) {
        if (!fig3_) checks.fail(kIlId, "fig3 baseline unreadable: " + fig3_error_);
        for (const core::Metric& want : fig3_ ? *fig3_ : Metrics{}) {
          const double* got = find_metric(out.simulated, want.first);
          checks.expect(got != nullptr && same_bits(*got, want.second), kIlId,
                        want.first + " " + (got ? fmt(*got) : "missing") + " != fig3 baseline " +
                            fmt(want.second));
        }
      }
    } catch (const std::exception& e) {
      if (out.run_s == 0.0) out.run_s = seconds_since(t_run);
      checks.fail_batch(std::string("threw: ") + e.what());
    }

    add_decide(probe, out);
    out.retrain = summarize(probe.retrain_ns());
    if (trace) {
      out.layers = probe_layers(probe, out.run_s, engine.pool().size());
      out.layers.emplace_back("oracle.collect_s", collect_s);
      add_oracle_layers(*cache, out.layers);
    }
    checks.into(out);
    return out;
  }

 private:
  Options opt_;
  std::optional<Metrics> fig3_;
  std::string fig3_error_;
};

// ---- gpu_enmpc_thermal: Fig. 5 main arms + preheated transient arms --------

constexpr double kFps = 30.0;
constexpr std::size_t kGpuFrames = 1800;  // 60 s at 30 FPS per workload
constexpr std::size_t kLawSamples = 1500;
constexpr double kHorizons[] = {10.0, 120.0, 240.0};

struct GpuInputs {
  std::vector<workloads::GpuWorkloadSpec> specs;
  std::vector<std::vector<gpu::FrameDescriptor>> traces;  ///< one per spec
  std::size_t thermal_index = 0;  ///< AngryBirds, the transient arms' workload
};

GpuInputs gpu_inputs(std::uint64_t seed) {
  GpuInputs in;
  in.specs = workloads::GpuBenchmarks::fig5_suite();
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    common::Rng trng(stream_seed(seed, 1000 + in.specs[i].id));
    in.traces.push_back(workloads::GpuBenchmarks::trace(in.specs[i], kGpuFrames, trng));
    if (in.specs[i].name == "AngryBirds") in.thermal_index = i;
  }
  return in;
}

core::GpuScenario gpu_arm(std::string id, const std::vector<gpu::FrameDescriptor>& trace) {
  core::GpuScenario s;
  s.id = std::move(id);
  s.fps_target = kFps;
  s.trace = trace;
  s.initial = gpu::GpuConfig{9, s.platform.max_slices};
  return s;
}

core::GpuControllerFactory enmpc_factory(bool thermal_aware) {
  core::NmpcConfig cfg;
  cfg.fps_target = kFps;
  cfg.thermal_aware = thermal_aware;
  return core::gpu_enmpc_factory(cfg, kLawSamples);
}

/// bench_fig5_enmpc's fig5_transient arms: preheated device, skin 0.5 C
/// under its limit, transient headroom budget recomputed every frame.
soc::ThermalGpuConstraintParams transient_params(double horizon_s) {
  soc::ThermalGpuConstraintParams thermal;
  thermal.ambient_c = 35.0;
  thermal.limits.t_max_skin_c = 40.0;
  thermal.limits.t_max_junction_c = 75.0;
  thermal.horizon_s = horizon_s;
  thermal.budget_interval_s = 1.0 / kFps;
  thermal.initial_temperature_c = {48.0, 46.0, 58.0, 45.0, 39.5};
  return thermal;
}

std::string transient_id(const char* prefix, double horizon_s, bool aware) {
  return std::string(prefix) + "/h" + std::to_string(static_cast<int>(horizon_s)) +
         (aware ? "/aware" : "/blind");
}

const core::GpuRunResult& gpu_run_of(const AnyResult& r) {
  return r.holds<core::ThermalGpuRunResult>() ? r.as<core::ThermalGpuRunResult>().run
                                              : r.as<core::GpuRunResult>();
}

class GpuEnmpcThermal final : public Workload {
 public:
  explicit GpuEnmpcThermal(const Options& opt) : opt_(opt) {}

  std::size_t wiring_scenarios() const override { return 8; }

  std::vector<std::string> check_wiring() override {
    const GpuInputs in = gpu_inputs(opt_.seed);
    const auto& hot = in.traces[in.thermal_index];
    core::ExperimentEngine engine;
    std::vector<AnyScenario> ref;
    for (bool aware : {false, true}) {
      core::GpuScenario s = gpu_arm(transient_id("check", kHorizons[0], aware), hot);
      s.make_controller = enmpc_factory(aware);
      ref.emplace_back(core::ThermalGpuScenario{std::move(s), transient_params(kHorizons[0])});
    }
    core::GpuScenario base = gpu_arm("check/baseline", in.traces[0]);
    base.make_controller = core::gpu_baseline_factory();
    core::GpuScenario enmpc = gpu_arm("check/enmpc", in.traces[0]);
    enmpc.make_controller = enmpc_factory(false);
    ref.emplace_back(base);
    ref.emplace_back(enmpc);

    RepProbe probe(/*trace=*/true);
    std::vector<AnyScenario> mine;
    for (bool aware : {false, true}) {
      const std::string id = transient_id("check", kHorizons[0], aware);
      mine.push_back(probed(id, probe, [&hot, aware, id](ScenarioProbe& p) {
        core::GpuScenario s = gpu_arm(id, hot);
        s.make_controller = timed(enmpc_factory(aware), Role::kNmpc, true, p);
        return run_thermal_gpu(s, transient_params(kHorizons[0]), p);
      }));
    }
    for (const core::GpuScenario* arm : {&base, &enmpc}) {
      const bool is_base = arm == &base;
      mine.push_back(probed(arm->id, probe, [arm, is_base](ScenarioProbe& p) {
        core::GpuScenario s = *arm;
        s.make_controller = timed(arm->make_controller, is_base ? Role::kGovernor : Role::kNmpc,
                                  !is_base, p);
        return AnyScenario(std::move(s)).run();
      }));
    }

    const std::vector<AnyResult> want = engine.run_any(ref);
    const std::vector<AnyResult> got = engine.run_any(mine);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < want.size(); ++i) {
      compare_metrics(want[i].id(), want[i].metrics(), got[i].metrics(), out);
      if (gpu_run_of(want[i]).decision_latency.decisions !=
          gpu_run_of(got[i]).decision_latency.decisions)
        out.push_back(want[i].id() + ": decision counts differ");
    }
    return out;
  }

  RepResult run_rep(bool trace) override {
    RepResult out;
    const auto t_setup = Clock::now();
    const GpuInputs in = gpu_inputs(opt_.seed);
    core::ExperimentEngine engine;
    out.setup_s = seconds_since(t_setup);

    RepProbe probe(trace);
    std::vector<AnyScenario> batch;
    for (std::size_t i = 0; i < in.specs.size(); ++i) {
      for (bool baseline : {true, false}) {
        const std::string id =
            "gpu/fig5/" + in.specs[i].name + (baseline ? "/baseline" : "/enmpc");
        batch.push_back(probed(id, probe, [&in, i, baseline, id](ScenarioProbe& p) {
          core::GpuScenario s = gpu_arm(id, in.traces[i]);
          s.make_controller =
              baseline ? timed(core::gpu_baseline_factory(), Role::kGovernor, false, p)
                       : timed(enmpc_factory(false), Role::kNmpc, true, p);
          return AnyScenario(std::move(s)).run();
        }));
      }
    }
    // decide_* samples the ENMPC of the Fig. 5 main arms only.  Each step of
    // a transient arm follows a power-headroom bisection that evicts the
    // controller's state from cache; those steps ran 1.1-8x slower than the
    // main arms' and varied 3x between repetitions, which swamped decide_*.
    // Traced runs still count them in nmpc.steps / nmpc.step_s.
    for (double horizon : kHorizons) {
      for (bool aware : {false, true}) {
        const std::string id = transient_id("gpu/transient", horizon, aware);
        batch.push_back(probed(id, probe, [&in, horizon, aware, id](ScenarioProbe& p) {
          core::GpuScenario s = gpu_arm(id, in.traces[in.thermal_index]);
          s.make_controller = timed(enmpc_factory(aware), Role::kNmpc, false, p);
          return run_thermal_gpu(s, transient_params(horizon), p);
        }));
      }
    }
    out.attempted = batch.size();

    Checks checks;
    const auto t_run = Clock::now();
    try {
      const std::vector<AnyResult> results = engine.run_any(batch);
      out.run_s = seconds_since(t_run);

      std::size_t frames = 0, transient_frames = 0, clamped = 0;
      double energy_sum = 0.0;
      for (const AnyResult& r : results) {
        const core::GpuRunResult& run = gpu_run_of(r);
        checks.expect(run.frames == kGpuFrames, r.id(), std::to_string(run.frames) + " frames");
        checks.expect(run.decision_latency.decisions == kGpuFrames, r.id(),
                      std::to_string(run.decision_latency.decisions) + " decisions");
        frames += run.frames;
        energy_sum += run.gpu_energy_j;
        if (r.holds<core::ThermalGpuRunResult>()) {
          const std::size_t c = r.as<core::ThermalGpuRunResult>().clamped_frames;
          checks.expect(c <= run.frames, r.id(), "more clamps than frames");
          clamped += c;
          transient_frames += run.frames;
        }
      }
      checks.expect(probe.decide_ns().size() == in.specs.size() * kGpuFrames, "gpu/enmpc",
                    std::to_string(probe.decide_ns().size()) + " ENMPC step samples");

      double ratio_sum = 0.0, miss_sum = 0.0;
      for (const auto& spec : in.specs) {
        const core::GpuRunResult& b =
            gpu_run_of(find_result(results, "gpu/fig5/" + spec.name + "/baseline"));
        const core::GpuRunResult& e =
            gpu_run_of(find_result(results, "gpu/fig5/" + spec.name + "/enmpc"));
        ratio_sum += e.gpu_energy_j / b.gpu_energy_j;
        miss_sum += e.miss_rate();
      }
      const double n = static_cast<double>(in.specs.size());
      out.simulated = {
          {"energy_ratio", ratio_sum / n},
          {"deadline_miss_rate", miss_sum / n},
          {"clamp_rate", static_cast<double>(clamped) / static_cast<double>(transient_frames)},
          {"frames", static_cast<double>(frames)},
          {"clamped_frames", static_cast<double>(clamped)},
          {"gpu_energy_sum_j", energy_sum}};
    } catch (const std::exception& e) {
      if (out.run_s == 0.0) out.run_s = seconds_since(t_run);
      checks.fail_batch(std::string("threw: ") + e.what());
    }

    add_decide(probe, out);
    if (trace) out.layers = probe_layers(probe, out.run_s, engine.pool().size());
    checks.into(out);
    return out;
  }

 private:
  Options opt_;
};

// ---- fleet_warm: streaming fleet sweep on a warm Oracle store --------------

constexpr std::size_t kFleetDevices = 4000;
constexpr std::size_t kFleetShard = 64;
constexpr std::size_t kCheckDevices = 16;

fleet::PopulationConfig fleet_config(std::uint64_t seed) {
  fleet::PopulationConfig cfg;
  cfg.devices = kFleetDevices;
  cfg.seed = stream_seed(seed, 909);
  return cfg;
}

/// Platform noise seed of device `index`, as DevicePopulation::scenario
/// derives it.  check_wiring compares the two wirings bitwise, which is
/// what keeps this copy honest.
std::uint64_t fleet_noise_seed(std::uint64_t population_seed, std::size_t index) {
  return (population_seed * 0x517cc1b727220a95ULL) ^
         (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
}

/// One device as DevicePopulation::scenario builds it, minus the controller
/// factory, which each run wraps in its own probe.
struct Device {
  core::Scenario scenario;
  soc::ThermalConstraintParams thermal;
};

std::shared_ptr<const Device> make_device(const fleet::DevicePopulation& pop, std::size_t index,
                                          std::shared_ptr<core::OracleCache> cache) {
  fleet::DeviceSpec spec = pop.spec(index);
  auto d = std::make_shared<Device>();
  d->scenario.id = spec.id;
  d->scenario.platform = spec.platform;
  d->scenario.platform_noise_seed = fleet_noise_seed(pop.config().seed, index);
  d->scenario.trace = std::move(spec.trace);
  d->scenario.oracle_cache = std::move(cache);
  d->thermal.limits.t_max_junction_c = pop.config().t_max_junction_c;
  d->thermal.limits.t_max_skin_c = pop.config().t_max_skin_c;
  d->thermal.ambient_c = spec.ambient_c;
  d->thermal.horizon_s = 0.0;  // steady-state max-sustainable-power budget
  return d;
}

AnyScenario device_arm(std::shared_ptr<const Device> d, RepProbe& probe) {
  const std::string id = d->scenario.id;
  return probed(id, probe, [d = std::move(d)](ScenarioProbe& p) {
    core::Scenario s = d->scenario;
    s.make_controller = timed(core::governor_factory("ondemand"), Role::kGovernor, true, p);
    return run_thermal_drm(s, d->thermal, p);
  });
}

class FleetWarm final : public Workload {
 public:
  explicit FleetWarm(const Options& opt) : opt_(opt) {
    if (opt_.store_dir.empty())
      throw std::invalid_argument("fleet_warm needs --store (filled by --prepare)");
  }

  std::size_t wiring_scenarios() const override { return 2 * kCheckDevices; }

  std::vector<std::string> check_wiring() override {
    core::ExperimentEngine engine;
    auto store = std::make_shared<core::ArtifactStore>(opt_.store_dir);
    auto cache = std::make_shared<core::OracleCache>(store, &engine.pool());
    const fleet::DevicePopulation pop(fleet_config(opt_.seed), cache);
    RepProbe probe(/*trace=*/true);
    std::vector<AnyScenario> ref, mine;
    for (std::size_t i = 0; i < kCheckDevices; ++i) {
      ref.push_back(pop.scenario(i));
      mine.push_back(device_arm(make_device(pop, i, cache), probe));
    }
    const std::vector<AnyResult> want = engine.run_any(ref);
    const std::vector<AnyResult> got = engine.run_any(mine);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < want.size(); ++i) {
      compare_metrics(want[i].id(), want[i].metrics(), got[i].metrics(), out);
      compare_drm_records(want[i].id(), want[i].as<core::ThermalRunResult>().run,
                          got[i].as<core::ThermalRunResult>().run, out);
    }
    return out;
  }

  RepResult run_rep(bool trace) override {
    RepResult out;
    const auto t_setup = Clock::now();
    core::ExperimentEngine engine;
    auto store = std::make_shared<core::ArtifactStore>(opt_.store_dir);
    const auto t_preload = Clock::now();
    auto cache = std::make_shared<core::OracleCache>(store, &engine.pool());
    const double preload_s = seconds_since(t_preload);
    const fleet::PopulationConfig cfg = fleet_config(opt_.seed);
    const fleet::DevicePopulation pop(cfg, cache);
    out.setup_s = seconds_since(t_setup);

    RepProbe probe(trace);
    fleet::PopulationAggregator aggregate(cfg.t_max_skin_c);
    out.attempted = cfg.devices;
    Checks checks;
    double generate_s = 0.0, aggregate_s = 0.0;
    std::size_t next = 0;
    const auto generator = [&]() -> std::optional<AnyScenario> {
      if (next >= cfg.devices) return std::nullopt;
      const auto t0 = Clock::now();
      AnyScenario arm = device_arm(make_device(pop, next++, cache), probe);
      if (trace) generate_s += seconds_since(t0);
      return arm;
    };
    const auto sink = [&](AnyResult&& r) {
      const core::RunResult& run = r.as<core::ThermalRunResult>().run;
      checks.expect(run.records.size() == cfg.snippets_per_device &&
                        run.decision_latency.decisions == cfg.snippets_per_device,
                    r.id(), std::to_string(run.records.size()) + " decisions");
      const auto t0 = Clock::now();
      aggregate.add(r);
      if (trace) aggregate_s += seconds_since(t0);
    };

    const auto t_run = Clock::now();
    try {
      const std::size_t ran =
          engine.run_any_streaming(generator, sink, core::StreamOptions{kFleetShard});
      out.run_s = seconds_since(t_run);
      const fleet::CohortStats& pop_stats = aggregate.population();
      checks.expect(ran == cfg.devices && pop_stats.devices == cfg.devices, "fleet",
                    std::to_string(pop_stats.devices) + " devices aggregated");
      if (cache->searches() != 0)
        checks.fail_batch(std::to_string(cache->searches()) + " Oracle searches on a warm store");
      out.simulated = {
          {"energy_ratio", pop_stats.energy_ratio.stats().mean()},
          {"energy_ratio_p99", pop_stats.energy_ratio.percentile(99.0)},
          {"clamp_rate", static_cast<double>(pop_stats.clamped) /
                             static_cast<double>(pop_stats.snippets)},
          {"devices", static_cast<double>(pop_stats.devices)},
          {"snippets", static_cast<double>(pop_stats.snippets)},
          {"skin_violations", static_cast<double>(pop_stats.skin_violations)},
          {"oracle.lookups", static_cast<double>(cache->lookups())},
          {"oracle.searches", static_cast<double>(cache->searches())},
          {"store.loaded", static_cast<double>(cache->store_loaded())}};
    } catch (const std::exception& e) {
      if (out.run_s == 0.0) out.run_s = seconds_since(t_run);
      checks.fail_batch(std::string("threw: ") + e.what());
    }

    add_decide(probe, out);
    if (trace) {
      out.layers = probe_layers(probe, out.run_s, engine.pool().size());
      add_oracle_layers(*cache, out.layers);
      out.layers.emplace_back("store.preload_s", preload_s);
      out.layers.emplace_back("store.loaded", static_cast<double>(cache->store_loaded()));
      out.layers.emplace_back("fleet.generate_s", generate_s);
      out.layers.emplace_back("fleet.device_s", probe.scenario_sum_s());
      out.layers.emplace_back("fleet.aggregate_s", aggregate_s);
    }
    checks.into(out);
    return out;
  }

 private:
  Options opt_;
};

}  // namespace

const double* find_metric(const Metrics& m, const std::string& name) {
  for (const core::Metric& x : m)
    if (x.first == name) return &x.second;
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"online_il_adapt", "gpu_enmpc_thermal",
                                              "fleet_warm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "online_il_adapt") return std::make_unique<OnlineIlAdapt>(opt);
  if (opt.workload == "gpu_enmpc_thermal") return std::make_unique<GpuEnmpcThermal>(opt);
  if (opt.workload == "fleet_warm") return std::make_unique<FleetWarm>(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

void prepare_fleet_store(const Options& opt) {
  core::ExperimentEngine engine;
  auto store = std::make_shared<core::ArtifactStore>(opt.store_dir);
  auto cache = std::make_shared<core::OracleCache>(store, &engine.pool());
  const fleet::DevicePopulation pop(fleet_config(opt.seed), cache);
  engine.run_any_streaming(pop.generator(), [](AnyResult&&) {},
                           core::StreamOptions{kFleetShard});
  cache->flush();
}

}  // namespace perfbench
