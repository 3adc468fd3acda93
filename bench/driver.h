// Shared CLI driver for the engine-driven benches.
//
// Every bench catalogs its arms in a core::ScenarioRegistry and delegates
// argv handling here, so the whole bench suite speaks one language:
//
//   bench_x                         run every arm
//   bench_x fig5/SharkDash fig5_thermal
//                                   run the arms those '/'-segment prefixes
//                                   select (union, name-ordered)
//   bench_x --list [prefix...]      print the selected arm names and exit
//   bench_x --json <path>           append one JSONL record per arm (shared
//                                   paths accumulate across benches)
//   bench_x --threads 1             run the engine on N workers (default:
//                                   one per CPU in the affinity mask); every
//                                   output is identical at any N
//   bench_x --frames 300            bench-registered scale-down option
//
// Unknown flags, malformed values, and prefixes that select nothing all
// exit 2 with usage on stderr (the tools/jsonl_compare convention); --help
// exits 0.  Benches keep their own reporting but must tolerate subset
// selection: look results up through ResultIndex and skip absent rows.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/domain.h"
#include "core/oracle.h"
#include "core/results_io.h"
#include "core/scenario_registry.h"

namespace oal::bench {

/// Id-indexed view over ExperimentEngine results for subset-tolerant
/// reporting: a report row whose arm was deselected looks up nullptr and is
/// skipped instead of crashing a .at().
class ResultIndex {
 public:
  explicit ResultIndex(const std::vector<core::AnyResult>& results);

  /// nullptr when the id is not in the result set (arm deselected).
  const core::AnyResult* find(const std::string& id) const;
  bool has(const std::string& id) const { return find(id) != nullptr; }
  bool has_all(const std::vector<std::string>& ids) const;

 private:
  std::map<std::string, const core::AnyResult*> by_id_;
};

class BenchDriver {
 public:
  /// `bench_name` doubles as the usage program name and the default JSONL
  /// "bench" field.
  explicit BenchDriver(std::string bench_name);

  /// Registers a scale-down option (`flag <count>`) before parse(); the
  /// parsed value lands in *value, which also provides the default shown by
  /// --help.  `flag` must include the leading "--".
  void add_size_option(const std::string& flag, std::size_t* value, const std::string& help);

  /// Parses argv.  Returns false when main() should immediately return
  /// exit_code(): --help (0) or a usage error (2, message on stderr).
  [[nodiscard]] bool parse(int argc, char** argv);
  int exit_code() const { return exit_code_; }

  /// True when --list was given; benches should skip expensive setup, build
  /// their (lazy) registry, and return list().
  bool listing() const { return list_; }

  /// Prints the arm names the positional prefixes select, one per line;
  /// returns the process exit code (2 when a prefix selects nothing).
  int list(const core::ScenarioRegistry& registry) const;

  /// The arm names the positional prefixes select (every name when none),
  /// as the name-ordered deduplicated union — what select() will build,
  /// exposed so benches can gate expensive shared setup on what actually
  /// runs.  Exits 2 with usage when a prefix selects nothing.
  std::vector<std::string> selection(const core::ScenarioRegistry& registry) const;

  /// The arms selection() names, built — ready for ExperimentEngine::run_any.
  /// Exits 2 with usage when a prefix selects nothing.
  std::vector<core::AnyScenario> select(const core::ScenarioRegistry& registry) const;

  /// JSONL sink bound to --json (disabled when the flag was absent), opened
  /// in append mode so several benches can share one path.
  core::JsonlWriter& json();

  /// Persistent artifact store bound to --store; nullptr when the flag was
  /// absent.  Benches hand it to OracleCache (cross-process warm searches)
  /// and use its blobs for pretrained weights.
  const std::shared_ptr<core::ArtifactStore>& store() const { return store_; }

  /// Engine options from --threads (0 = the pool's default size when the
  /// flag is absent).  Results never depend on it: the engine guarantees
  /// parallel == serial, which CI checks at bench scale with --threads 1.
  core::ExperimentOptions engine_options() const { return core::ExperimentOptions{threads_}; }

  const std::string& bench_name() const { return bench_name_; }
  const std::vector<std::string>& prefixes() const { return prefixes_; }

 private:
  struct SizeOption {
    std::string flag;
    std::size_t* value;
    std::string help;
  };

  std::string usage() const;
  bool fail(const std::string& message);
  /// Names selected by the prefix union; false (with a message on stderr)
  /// when some prefix selects nothing.
  bool selected_names(const core::ScenarioRegistry& registry,
                      std::vector<std::string>& out) const;

  std::string bench_name_;
  std::vector<SizeOption> size_options_;
  std::vector<std::string> prefixes_;
  std::string json_path_;
  std::string store_dir_;
  std::size_t threads_ = 0;
  bool list_ = false;
  int exit_code_ = 0;
  std::unique_ptr<core::JsonlWriter> json_;
  std::shared_ptr<core::ArtifactStore> store_;
};

/// Flushes `cache` to its backing store (if any) and appends the
/// "<bench>/oracle_stats" JSONL record: Oracle-cache telemetry (lookups /
/// searches / hits are deterministic run-to-run, see OracleCache) plus the
/// process wall time.  JSONL only — wall time must never reach stdout, which
/// the repo determinism probe diffs across invocations.  The CI warm-store
/// pass asserts "searches":0 on these records.
void write_oracle_stats(BenchDriver& driver, core::OracleCache& cache, double wall_time_s);

/// Appends one "<id>/decision_latency" JSONL record per result whose payload
/// carries runner-measured decision latencies (DRM, GPU, and their thermal
/// wrappers): per-decide() wall-clock p50/p99/max in nanoseconds plus the
/// exact decision count.  JSONL only — wall-clock values must never reach
/// stdout (the repo determinism probe diffs stdout across invocations), and
/// the CI gates compare only the deterministic `decisions` count, never the
/// nanoseconds.
void write_decision_latency(BenchDriver& driver, const std::vector<core::AnyResult>& results);

}  // namespace oal::bench
