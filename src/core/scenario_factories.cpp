#include "core/scenario_factories.h"

#include <stdexcept>

#include "core/governors.h"

namespace oal::core {

namespace {

/// Per-scenario copies of the offline artifacts the controller adapts.
struct OnlineIlDeps {
  IlPolicy policy;
  OnlineSocModels models;
  OnlineIlDeps(const IlPolicy& trained, const soc::ConfigSpace& space)
      : policy(trained), models(space) {}
};

}  // namespace

ControllerFactory governor_factory(const std::string& name) {
  if (name == "ondemand") {
    return [](ScenarioContext& ctx) {
      return ControllerInstance{std::make_unique<OndemandGovernor>(ctx.platform.space()),
                                nullptr};
    };
  }
  if (name == "interactive") {
    return [](ScenarioContext& ctx) {
      return ControllerInstance{std::make_unique<InteractiveGovernor>(ctx.platform.space()),
                                nullptr};
    };
  }
  if (name == "performance") {
    return [](ScenarioContext& ctx) {
      return ControllerInstance{std::make_unique<PerformanceGovernor>(ctx.platform.space()),
                                nullptr};
    };
  }
  if (name == "powersave") {
    return [](ScenarioContext&) {
      return ControllerInstance{std::make_unique<PowersaveGovernor>(), nullptr};
    };
  }
  throw std::invalid_argument("governor_factory: unknown governor '" + name + "'");
}

ControllerFactory offline_il_factory(std::shared_ptr<const IlPolicy> policy) {
  return [policy](ScenarioContext& ctx) {
    return ControllerInstance{
        std::make_unique<OfflineIlController>(ctx.platform.space(), *policy), policy};
  };
}

ControllerFactory online_il_factory(std::shared_ptr<const IlPolicy> policy,
                                    std::shared_ptr<const OfflineData> off, OnlineIlConfig cfg) {
  if (il_policy_config_hash(policy->config()) != il_policy_config_hash(cfg.policy_config()))
    throw std::invalid_argument("online_il_factory: policy trained with another IlPolicyConfig");
  return [policy, off, cfg](ScenarioContext& ctx) {
    auto deps = std::make_shared<OnlineIlDeps>(*policy, ctx.platform.space());
    deps->models.bootstrap(off->model_samples);
    auto ctl = std::make_unique<OnlineIlController>(ctx.platform.space(), deps->policy,
                                                    deps->models, cfg);
    return ControllerInstance{std::move(ctl), deps};
  };
}

ControllerFactory online_il_factory(std::shared_ptr<const OfflineData> off,
                                    std::uint64_t train_seed, OnlineIlConfig cfg) {
  return [off, train_seed, cfg](ScenarioContext& ctx) {
    auto policy = offline_policy(*off, ctx.platform.space(), cfg.policy_config(), train_seed,
                                 /*store=*/nullptr);
    return online_il_factory(std::move(policy), off, cfg)(ctx);
  };
}

// ---- GPU-ENMPC domain -----------------------------------------------------

namespace {

/// Per-scenario online models the NMPC controllers adapt in place.
struct GpuNmpcDeps {
  GpuOnlineModels models;
  explicit GpuNmpcDeps(const gpu::GpuPlatform& platform) : models(platform) {}
};

std::shared_ptr<GpuNmpcDeps> bootstrap_deps(GpuScenarioContext& ctx, std::size_t bootstrap_frames,
                                            std::uint64_t bootstrap_seed) {
  auto deps = std::make_shared<GpuNmpcDeps>(ctx.platform);
  common::Rng boot_rng(bootstrap_seed);
  bootstrap_gpu_models(ctx.platform, deps->models, 1.0 / ctx.scenario.fps_target,
                       bootstrap_frames, boot_rng);
  return deps;
}

}  // namespace

GpuControllerFactory gpu_baseline_factory() {
  return [](GpuScenarioContext& ctx) {
    return GpuControllerInstance{std::make_unique<BaselineGpuGovernor>(ctx.platform), nullptr};
  };
}

GpuControllerFactory gpu_nmpc_factory(NmpcConfig cfg, std::size_t bootstrap_frames,
                                      std::uint64_t bootstrap_seed) {
  return [cfg, bootstrap_frames, bootstrap_seed](GpuScenarioContext& ctx) {
    auto deps = bootstrap_deps(ctx, bootstrap_frames, bootstrap_seed);
    auto ctl = std::make_unique<NmpcGpuController>(ctx.platform, deps->models, cfg);
    return GpuControllerInstance{std::move(ctl), deps};
  };
}

GpuControllerFactory gpu_enmpc_factory(NmpcConfig cfg, std::size_t law_samples,
                                       std::size_t bootstrap_frames, std::uint64_t bootstrap_seed,
                                       std::uint64_t law_seed) {
  return [cfg, law_samples, bootstrap_frames, bootstrap_seed, law_seed](GpuScenarioContext& ctx) {
    auto deps = bootstrap_deps(ctx, bootstrap_frames, bootstrap_seed);
    auto ctl = std::make_unique<ExplicitNmpcGpuController>(ctx.platform, deps->models, cfg,
                                                           law_samples, law_seed);
    return GpuControllerInstance{std::move(ctl), deps};
  };
}

}  // namespace oal::core
