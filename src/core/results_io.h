// Machine-readable experiment results (JSON lines).
//
// Engine-driven benches accept `--json <path>` and append one record per
// scenario:
//     {"bench":"fig5","id":"fig5/SharkDash/enmpc","metrics":{"gpu_energy_j":...}}
// so perf/accuracy trajectories can be tracked across PRs without scraping
// stdout tables.  Only AnyResult metrics are serialized — payloads stay
// in-process.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "core/domain.h"

namespace oal::core {

/// Append-per-call JSONL sink.  Constructing with an empty path disables all
/// writes (so benches can call it unconditionally); a bad path throws.
///
/// The default open mode is kAppend, matching the append-per-call contract
/// across processes: several benches pointed at one --json path each add
/// their records instead of the last bench truncating the earlier ones.
/// Pass kTruncate to start a file over (e.g. when refreshing a checked-in
/// baseline in place).
class JsonlWriter {
 public:
  enum class Mode { kAppend, kTruncate };

  explicit JsonlWriter(const std::string& path, Mode mode = Mode::kAppend);

  bool enabled() const { return out_.is_open(); }

  void write(const std::string& bench, const AnyResult& result);
  void write(const std::string& bench, const std::vector<AnyResult>& results);
  /// For benches that keep domain results rather than AnyResults.
  void write_metrics(const std::string& bench, const std::string& id, const Metrics& metrics);

 private:
  std::ofstream out_;
};

}  // namespace oal::core
