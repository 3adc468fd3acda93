// The benchmark's three workloads, each a closed batch of scenarios driven
// through liboal's public API.  A workload is built once per invocation
// (inputs derived from the workload seed) and run as repeated, independent
// repetitions: every repetition sets up from scratch (traces or population,
// engine and pool, Oracle cache / store preload), runs the batch to
// completion and checks its outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;
  /// Workload seed.  0 selects the repo's bench protocol seeds (sequence 99,
  /// collect 7, train 5, fleet 909, GPU 1000+id); any other value derives
  /// every input stream from it (see stream_seed).
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string store_dir;      ///< fleet_warm: ArtifactStore filled by --prepare
  std::string fig3_baseline;  ///< online_il_adapt: bench/baselines/fig3_convergence.jsonl
};

/// Seed of one input stream: the bench protocol seed itself for workload
/// seed 0, otherwise a splitmix64 mix of (workload seed, protocol seed).
std::uint64_t stream_seed(std::uint64_t workload_seed, std::uint64_t protocol_seed);

struct RepResult {
  double setup_s = 0.0;  ///< repetition start -> first timed workload call
  double run_s = 0.0;    ///< the workload after setup, until the batch drains
  std::size_t attempted = 0;
  std::size_t failed = 0;               ///< scenarios that threw or failed a check
  std::vector<std::string> failures;    ///< one line per failed check
  LatencySummary decide;   ///< controller-under-test steps, retrains excluded
  /// Median step latency of the least disturbed decide window: the fastest
  /// RepProbe::window_p50_ns, or decide.p50_ns when the repetition has no
  /// window of its own (fleet devices).
  double decide_best_p50_ns = 0.0;
  LatencySummary retrain;  ///< online-IL steps that retrained the policy
  /// Simulated outputs and exact counts: bitwise equal across repetitions
  /// and between traced and untraced runs.
  oal::core::Metrics simulated;
  /// Per-layer metrics of a traced repetition (empty when untraced).
  oal::core::Metrics layers;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Untimed, once per invocation: the benchmark's own wiring (timed
  /// wrappers, rebuilt thermal hooks) against the library's on the same
  /// inputs.  Returns one line per mismatch.
  virtual std::vector<std::string> check_wiring() = 0;
  virtual RepResult run_rep(bool trace) = 0;
  /// Scenarios run by check_wiring (both sides).
  virtual std::size_t wiring_scenarios() const = 0;
};

/// Value of a named metric, or nullptr when absent.
const double* find_metric(const oal::core::Metrics& m, const std::string& name);

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& opt);

/// fleet_warm's untimed prepare step: runs the population once through the
/// library's own fleet wiring and spills every Oracle result it needed into
/// the ArtifactStore at opt.store_dir.
void prepare_fleet_store(const Options& opt);

}  // namespace perfbench
