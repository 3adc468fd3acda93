// Stock controller factories for ExperimentEngine scenarios.
//
// Benches and examples share the same handful of controller setups (frozen
// offline-IL policy, adaptive online-IL with per-scenario artifact copies,
// NMPC/ENMPC over per-scenario bootstrapped GPU models); keeping them here
// means a change to the setup protocol lands everywhere at once instead of
// in hand-synced lambdas.  The offline artifacts the IL arms start from are
// not made here: each bench collects its dataset once, on a platform of its
// own, through core::offline_dataset (core/oracle.h), and trains each
// distinct policy once through core::offline_policy (core/il_policy.h).
#pragma once

#include <cstdint>
#include <memory>

#include "core/domain.h"
#include "core/experiment.h"
#include "core/nmpc.h"
#include "core/online_il.h"

namespace oal::core {

/// Linux-style heuristic governor by name ("ondemand", "interactive",
/// "performance", "powersave") — the baselines every DRM study compares
/// against.  Throws std::invalid_argument on unknown names.
ControllerFactory governor_factory(const std::string& name);

/// Frozen offline policy, shared read-only across scenarios
/// (OfflineIlController never mutates it).
ControllerFactory offline_il_factory(std::shared_ptr<const IlPolicy> policy);

/// Adaptive online-IL from a shared offline policy and dataset: each
/// scenario copies the policy and bootstraps its own models from the
/// dataset's samples — the controller mutates both in place.  `policy` must
/// have been trained with cfg.policy_config() (std::invalid_argument
/// otherwise); with cfg.thermal_aware, on a dataset collected in the
/// thermal-aware feature space (offline_dataset's thermal_aware flag).
ControllerFactory online_il_factory(std::shared_ptr<const IlPolicy> policy,
                                    std::shared_ptr<const OfflineData> off, OnlineIlConfig cfg);

/// The same, training the policy inside every scenario, on the worker:
/// offline_policy(*off, space, cfg.policy_config(), train_seed, nullptr),
/// then the factory above.  For callers whose per-scenario cost includes
/// that training; benches train each distinct policy once in setup instead.
ControllerFactory online_il_factory(std::shared_ptr<const OfflineData> off,
                                    std::uint64_t train_seed, OnlineIlConfig cfg = {});

// ---- GPU-ENMPC domain (GpuScenario factories) -----------------------------

/// The paper's baseline busy-threshold governor (all slices on).
GpuControllerFactory gpu_baseline_factory();

/// Implicit NMPC over models bootstrapped on the scenario's own platform
/// (the bootstrap renders are part of the arm, as offline profiling would be).
GpuControllerFactory gpu_nmpc_factory(NmpcConfig cfg, std::size_t bootstrap_frames = 400,
                                      std::uint64_t bootstrap_seed = 7);

/// Explicit NMPC: bootstraps models, then fits the explicit law by Sobol
/// sampling the NMPC solution inside the factory (i.e. on the worker).
GpuControllerFactory gpu_enmpc_factory(NmpcConfig cfg, std::size_t law_samples = 1500,
                                       std::size_t bootstrap_frames = 400,
                                       std::uint64_t bootstrap_seed = 7,
                                       std::uint64_t law_seed = 2017);

}  // namespace oal::core
