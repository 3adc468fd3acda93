// Parallel experiment engine.
//
// Every bench and example in this repo boils down to "run a controller over
// a workload trace on a platform and report metrics against the Oracle" —
// repeated across controllers, workloads, seeds, and ablation arms.  A
// Scenario captures one such run as data: (platform config x workload trace
// x controller factory x seed x objective).  ExperimentEngine executes
// batches of scenarios on a work-stealing thread pool and aggregates the
// RunResults deterministically:
//
//  * Each scenario owns a private BigLittlePlatform (constructed from the
//    scenario's PlatformParams + noise seed) and a private common::Rng
//    stream seeded from Scenario::seed.  No state is shared between
//    scenarios, so a parallel batch is bitwise-identical to a serial one.
//  * Results are returned sorted by scenario id, independent of scheduling.
//  * If a controller factory (or run) throws, the exception of the
//    lowest-index scenario is rethrown after the batch drains.
//
// Controller factories run *inside* the worker, so expensive per-scenario
// setup (policy training, model bootstrap, RL pre-training) is parallelized
// along with the runs.  Factories may capture shared immutable artifacts
// (e.g. an offline dataset behind a shared_ptr, collected once on a
// platform of its own by core::offline_dataset) but must copy anything the
// controller mutates.
//
// There is one execution path: run_any_streaming() pulls scenarios from a
// lazy generator in fixed-size shards, runs each shard on the pool, and
// delivers its results to a sink callback in id order, so a downstream
// aggregator sees the identical result stream regardless of thread count.
// Peak result memory is one shard, not the population, which is what lets
// fleet-scale sweeps (thousands of device arms) run through the same engine
// and keep the parallel==serial bitwise contract per shard.  While a shard
// runs, the calling thread generates the next one, so workers do not idle
// at shard boundaries.  The vector
// run_any() is that path with the whole batch as one shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/controller.h"
#include "core/objectives.h"
#include "core/runner.h"
#include "soc/platform.h"

namespace oal::core {

struct Scenario;
class AnyScenario;  // core/domain.h: type-erased cross-domain scenario
class AnyResult;

/// Named scalar outputs of a run, in a deterministic (insertion) order.
using Metric = std::pair<std::string, double>;
using Metrics = std::vector<Metric>;

/// Scenario-private execution state handed to the controller factory.
struct ScenarioContext {
  const Scenario& scenario;
  soc::BigLittlePlatform& platform;  ///< this scenario's platform instance
  common::Rng& rng;                  ///< this scenario's deterministic stream
};

/// A controller plus whatever collaborators it references (policy, models);
/// `deps` keeps those alive for the duration of the run.
struct ControllerInstance {
  std::unique_ptr<DrmController> controller;
  std::shared_ptr<const void> deps;
};

using ControllerFactory = std::function<ControllerInstance(ScenarioContext&)>;

struct Scenario {
  std::string id;  ///< unique within a batch; results are ordered by id
  soc::PlatformParams platform;
  std::uint64_t platform_noise_seed = 2020;
  std::vector<soc::SnippetDescriptor> trace;
  /// Optional unrecorded prefix (no Oracle): e.g. RL pre-training.
  std::vector<soc::SnippetDescriptor> warmup;
  ControllerFactory make_controller;
  soc::SocConfig initial{4, 4, 8, 10};
  /// Seeds ScenarioContext::rng, the scenario-private stream handed to the
  /// controller factory.  It influences a run only insofar as the factory
  /// draws from it; the stock factories in scenario_factories.h use their
  /// own fixed seeds (paper-protocol fidelity) and ignore it.
  std::uint64_t seed = 0;
  Objective objective = Objective::kEnergy;
  bool compute_oracle = true;
  /// Optional shared Oracle memoization (see core::OracleCache).  Safe to
  /// share across a parallel batch — values are pure functions of
  /// (platform params, snippet, objective), all part of the cache key.
  std::shared_ptr<OracleCache> oracle_cache;
  /// Runs in the worker after the trace, while the controller is still
  /// alive — the place to harvest controller statistics (policy updates,
  /// table sizes).  Must touch scenario-local state only.
  std::function<void(DrmController&, const RunResult&)> on_complete;
  /// Like on_complete, but the returned metrics ride along in
  /// ScenarioResult::extra and are appended to the standard drm_metrics of
  /// the JSONL record (training wall-time, final loss, ...).
  std::function<Metrics(const DrmController&, const RunResult&)> extra_metrics;
};

struct ScenarioResult {
  std::string id;
  RunResult run;
  Metrics extra;  ///< Scenario::extra_metrics output (empty when unset)
};

struct ExperimentOptions {
  /// Worker count: 0 = one per CPU in the calling thread's affinity mask,
  /// 1 = scenarios run one at a time (the reference the determinism tests
  /// and CI's --threads 1 runs compare against).
  std::size_t num_threads = 0;
};

/// Geometry of a streaming sweep (run_any_streaming).
struct StreamOptions {
  /// Scenarios in flight at once.  Peak result memory of a streaming sweep
  /// is one shard — never the population — and the parallel==serial
  /// bitwise contract holds per shard (delivery order is a pure function of
  /// the shard's ids).  While a shard runs, the calling thread generates
  /// the next one, so at most two shards of *scenarios* exist at once (one
  /// running, one generated); a shard's results are delivered and dropped
  /// before the next shard starts.  Changing the shard size regroups the
  /// sweep but never changes any per-scenario result; it reorders delivery
  /// only across shard boundaries.
  std::size_t shard_size = 256;
};

class ExperimentEngine {
 public:
  using Options = ExperimentOptions;

  /// Per-result delivery callback of run_any_streaming, invoked on the
  /// calling thread in id order (never concurrently).  A sink may throw:
  /// the exception propagates to the caller and undelivered results of the
  /// current shard are dropped.
  using AnySink = std::function<void(AnyResult&&)>;
  /// Lazy scenario source for run_any_streaming: one scenario per call,
  /// std::nullopt when the population is exhausted.  Called on the engine's
  /// calling thread only (never concurrently), so a generator may hold
  /// mutable iteration state without synchronization.  It runs while the
  /// previous shard's scenarios run on the workers, so state it shares with
  /// scenarios it already yielded must be thread-safe (e.g. an OracleCache).
  using AnyGenerator = std::function<std::optional<AnyScenario>()>;

  explicit ExperimentEngine(Options opts = Options());

  /// Domain-generic batch execution: DRM, GPU-ENMPC, NoC, thermally-
  /// constrained DRM, and custom scenarios mix freely (see core/domain.h).
  /// Returns results sorted by scenario id; parallel is bitwise == serial;
  /// the lowest-index exception is rethrown after the batch drains.  Throws
  /// std::invalid_argument on empty/duplicate ids or a non-runnable
  /// scenario, before anything runs.  One run_any_streaming shard.
  std::vector<AnyResult> run_any(const std::vector<AnyScenario>& batch);

  /// Sharded streaming sweep over a lazily-generated population: pulls up to
  /// StreamOptions::shard_size scenarios from `generator`, runs the shard on
  /// the pool (parallel bitwise == serial, lowest-index exception rethrown
  /// after the shard drains), delivers its results to `sink` in id order,
  /// drops the shard, and repeats until the generator is exhausted — peak
  /// result memory is one shard, not the population.  The generator is
  /// pulled for shard k+1 while shard k runs (never again once it returned
  /// std::nullopt); an exception it throws there, or a validation error,
  /// propagates after shard k is delivered in full, and nothing of shard
  /// k+1 runs.  The pool's workers and this thread spin briefly at shard
  /// boundaries instead of parking (common/thread_pool.h).  Ids must be
  /// unique across the whole stream (std::invalid_argument otherwise, as in
  /// run_any).  Returns the number of scenarios executed.
  std::size_t run_any_streaming(const AnyGenerator& generator, const AnySink& sink,
                                const StreamOptions& stream = {});

  /// The engine's pool, also for deterministic sweeps that are not scenario
  /// runs (ThreadPool::parallel_map, e.g. NoC design points).
  common::ThreadPool& pool() { return pool_; }

  /// Customization point for domain adapters (e.g. thermal budgeting):
  /// invoked after the scenario's platform is constructed and the default
  /// RunnerOptions are built — but after any warmup trace, which always
  /// runs unhooked — so the adapter can bind arbiter/observer hooks to this
  /// scenario's platform instance.
  using RunCustomizer = std::function<void(soc::BigLittlePlatform&, RunnerOptions&)>;

  /// Executes one scenario in the calling thread (the serial building block).
  static ScenarioResult run_scenario(const Scenario& s, const RunCustomizer& customize = nullptr);

 private:
  common::ThreadPool pool_;
};

}  // namespace oal::core
