// JSONL bench-result comparison (ROADMAP "JSONL trend tracking").
//
// Benches emit one JSON record per scenario via core::JsonlWriter; this
// module reads those files back and diffs two runs (a checked-in baseline
// vs. a fresh run) metric-by-metric, flagging differences beyond a
// tolerance.  tools/jsonl_compare wraps it as the CLI that CI runs; the
// parser doubles as the round-trip check for JsonlWriter's escaping.
//
// The parser covers exactly the JSON subset the writer emits — objects,
// strings (with \", \\, \/, \b, \f, \n, \r, \t, \uXXXX escapes), finite
// numbers, and null (the writer's encoding for NaN/inf) — and rejects
// anything else loudly rather than guessing.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/domain.h"

namespace oal::core {

/// One parsed JSONL record: {"bench":...,"id":...,"metrics":{...}}.
/// Non-finite metrics (serialized as null) are dropped with a note in the
/// record, since they cannot be compared numerically.
struct JsonlRecord {
  std::string bench;
  std::string id;
  Metrics metrics;
  std::vector<std::string> null_metrics;  ///< metric names serialized as null
};

/// Parses one record line; throws std::invalid_argument with the offending
/// position on malformed input.
JsonlRecord parse_jsonl_record(const std::string& line);

/// Parses a whole stream/file (one record per non-empty line).  The file
/// variant throws std::runtime_error when the file cannot be opened.
std::vector<JsonlRecord> read_jsonl(std::istream& in);
std::vector<JsonlRecord> read_jsonl_file(const std::string& path);

struct JsonlCompareOptions {
  /// A metric difference is flagged when |cur - base| exceeds
  /// max(abs_tol, rel_tol * |base|) — direction-agnostic drift detection
  /// (metrics do not declare whether higher or lower is better).
  double rel_tol = 0.02;
  double abs_tol = 1e-9;
  /// When non-empty, only baseline metrics selected by these elements are
  /// gated (an element ending in '*' matches by prefix, otherwise exactly);
  /// everything else — including null baseline metrics — is ignored.  This
  /// is how benches with chaotic metrics (libm divergence across compilers)
  /// gate their stable subset.  An element that selects no metric present
  /// anywhere in the baseline is an error: a typo would otherwise silently
  /// gate nothing.
  std::vector<std::string> metrics;
  /// Metrics matched by these elements (same syntax as `metrics`) are never
  /// gated, even when `metrics` selects them — e.g. the wall-clock fields
  /// of a whole-record comparison.  An element that matches nothing is not
  /// an error: excluding an absent metric cannot loosen the gate.
  std::vector<std::string> exclude;
  /// Per-metric-name tolerance overrides; keys are exact metric names (no
  /// '*' prefixes) and must be present in the baseline — unknown keys are
  /// errors so a typo cannot silently loosen nothing.
  std::map<std::string, double> rel_tol_for;
  std::map<std::string, double> abs_tol_for;
};

struct JsonlCompareResult {
  /// Human-readable findings, one per line; regressions and structural
  /// mismatches (missing records/metrics, duplicate ids) all land here.
  std::vector<std::string> issues;
  std::size_t records_compared = 0;
  std::size_t metrics_compared = 0;
  /// Records present only in `current` — informational growth, not a
  /// failure (new scenarios are expected as the repo grows; refresh the
  /// baseline to start tracking them).
  std::size_t records_only_in_current = 0;

  bool ok() const { return issues.empty(); }
};

/// Compares `current` against `baseline`.  Every baseline record/metric must
/// exist in `current` and agree within tolerance; a duplicated (bench, id)
/// in either file is an error (lookup would silently keep one of them and
/// the gate could pass on the wrong record).
JsonlCompareResult compare_jsonl(const std::vector<JsonlRecord>& baseline,
                                 const std::vector<JsonlRecord>& current,
                                 const JsonlCompareOptions& opts = {});

}  // namespace oal::core
