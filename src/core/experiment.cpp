#include "core/experiment.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "core/domain.h"

namespace oal::core {

namespace {

// Shared id/runnability validation; `ids` accumulates across shards so a
// streaming sweep rejects duplicates over the whole population.
void validate_any(const AnyScenario& s, std::unordered_set<std::string>& ids) {
  if (s.id().empty()) throw std::invalid_argument("ExperimentEngine: scenario with empty id");
  if (!s.runnable())
    throw std::invalid_argument("ExperimentEngine: scenario '" + s.id() + "' is not runnable");
  if (!ids.insert(s.id()).second)
    throw std::invalid_argument("ExperimentEngine: duplicate scenario id '" + s.id() + "'");
}

}  // namespace

ExperimentEngine::ExperimentEngine(Options opts) : pool_(opts.num_threads) {}

ScenarioResult ExperimentEngine::run_scenario(const Scenario& s, const RunCustomizer& customize) {
  if (!s.make_controller)
    throw std::invalid_argument("ExperimentEngine: scenario '" + s.id + "' has no factory");

  soc::BigLittlePlatform platform(s.platform, s.platform_noise_seed);
  common::Rng rng(s.seed);
  ScenarioContext ctx{s, platform, rng};
  ControllerInstance instance = s.make_controller(ctx);
  if (!instance.controller)
    throw std::invalid_argument("ExperimentEngine: factory for '" + s.id +
                                "' returned no controller");

  if (!s.warmup.empty()) {
    RunnerOptions warm;
    warm.objective = s.objective;
    warm.compute_oracle = false;
    DrmRunner warm_runner(platform, warm);
    (void)warm_runner.run(s.warmup, *instance.controller, s.initial);
  }

  RunnerOptions opts;
  opts.objective = s.objective;
  opts.compute_oracle = s.compute_oracle;
  opts.oracle_cache = s.oracle_cache;
  if (customize) customize(platform, opts);
  DrmRunner runner(platform, opts);
  ScenarioResult result{s.id, runner.run(s.trace, *instance.controller, s.initial), {}};
  if (s.on_complete) s.on_complete(*instance.controller, result.run);
  if (s.extra_metrics) result.extra = s.extra_metrics(*instance.controller, result.run);
  return result;
}

std::vector<AnyResult> ExperimentEngine::run_any(const std::vector<AnyScenario>& batch) {
  std::vector<AnyResult> results;
  results.reserve(batch.size());
  std::size_t next = 0;
  run_any_streaming(
      [&]() -> std::optional<AnyScenario> {
        if (next == batch.size()) return std::nullopt;
        return batch[next++];
      },
      [&](AnyResult&& r) { results.push_back(std::move(r)); },
      StreamOptions{std::max<std::size_t>(batch.size(), 1)});
  return results;
}

std::size_t ExperimentEngine::run_any_streaming(const AnyGenerator& generator, const AnySink& sink,
                                                const StreamOptions& stream) {
  if (!generator) throw std::invalid_argument("ExperimentEngine: null generator");
  if (!sink) throw std::invalid_argument("ExperimentEngine: null sink");
  if (stream.shard_size == 0)
    throw std::invalid_argument("ExperimentEngine: shard_size must be > 0");

  std::unordered_set<std::string> ids;
  bool exhausted = false;
  // Pulls up to one shard from the generator, validating as it goes; never
  // calls the generator again once it has returned std::nullopt.
  const auto fill = [&](std::vector<AnyScenario>& shard) {
    while (!exhausted && shard.size() < stream.shard_size) {
      std::optional<AnyScenario> s = generator();
      if (!s.has_value()) {
        exhausted = true;
        break;
      }
      validate_any(*s, ids);
      shard.push_back(std::move(*s));
    }
  };
  std::vector<AnyScenario> shard, next;
  shard.reserve(stream.shard_size);
  next.reserve(stream.shard_size);
  fill(shard);
  std::size_t total = 0;
  while (!shard.empty()) {
    // Each index is independent; run_indexed rethrows the lowest-index
    // exception after the shard drains.  Meanwhile this thread generates
    // the next shard (one shard of lookahead, scenarios only).  A generator
    // or validation error there is held until this shard is delivered, and
    // nothing of the next shard runs.
    std::vector<AnyResult> results(shard.size());
    std::exception_ptr generate_error;
    pool_.run_indexed(
        shard.size(), [&](std::size_t i) { results[i] = shard[i].run(); },
        [&] {
          try {
            fill(next);
          } catch (...) {
            generate_error = std::current_exception();
            next.clear();
          }
          return !next.empty();
        });
    // Delivery order is a pure function of the shard's ids — independent
    // of thread count and scheduling — so a stateful sink aggregates the
    // identical stream serial vs parallel.  The shard is delivered and its
    // results dropped before the next one starts: peak result memory stays
    // one shard.
    std::vector<std::size_t> order(results.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return results[a].id() < results[b].id();
    });
    for (std::size_t i : order) sink(std::move(results[i]));
    total += shard.size();
    if (generate_error) std::rethrow_exception(generate_error);
    shard.swap(next);
    next.clear();
  }
  return total;
}

}  // namespace oal::core
