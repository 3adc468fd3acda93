// CLI wrapper over core::compare_jsonl: diff two `--json` bench outputs and
// fail (exit 1) on metric drift beyond tolerance.  CI runs it against a
// checked-in baseline so bench metrics cannot silently regress.
//
// Usage: jsonl_compare <baseline.jsonl> <current.jsonl>
//                      [--rel-tol <frac>] [--abs-tol <v>]
//                      [--metrics <name[,name|prefix*...]>]
//                      [--exclude-metrics <name[,name|prefix*...]>]
//                      [--metric-rel-tol <name>=<frac>]...
//                      [--metric-abs-tol <name>=<v>]...
//
// --metrics gates only the named metrics (a trailing '*' matches by prefix),
// so benches with chaotic metrics can check in baselines for their stable
// subset; --exclude-metrics drops names from the gate (e.g. wall-clock
// fields when two runs are compared exactly); the per-metric tolerance flags
// loosen (or tighten) single metrics without widening the whole gate.
// Unknown metric names are errors, except in --exclude-metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/jsonl_compare.h"

namespace {

constexpr const char* kUsage =
    "usage: jsonl_compare <baseline.jsonl> <current.jsonl> "
    "[--rel-tol <frac>] [--abs-tol <v>] [--metrics <name[,name|prefix*...]>] "
    "[--exclude-metrics <name[,name|prefix*...]>] "
    "[--metric-rel-tol <name>=<frac>]... [--metric-abs-tol <name>=<v>]...";

/// Parses a tolerance; exits 2 on non-numeric input (atof would silently
/// turn a typo into 0.0 — a near-exact gate where a looser one was meant).
double tolerance_value(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "jsonl_compare: %s expects a number, got '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return v;
}

/// Splits "name=value"; exits 2 on a missing '=', an empty name, or a
/// non-numeric value.
std::pair<std::string, double> name_value(const std::string& flag, const std::string& arg) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    std::fprintf(stderr, "jsonl_compare: %s expects <name>=<value>, got '%s'\n", flag.c_str(),
                 arg.c_str());
    std::exit(2);
  }
  return {arg.substr(0, eq), tolerance_value(flag, arg.c_str() + eq + 1)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  oal::core::JsonlCompareOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "jsonl_compare: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--rel-tol") {
      opts.rel_tol = tolerance_value(arg, value());
    } else if (arg == "--abs-tol") {
      opts.abs_tol = tolerance_value(arg, value());
    } else if (arg == "--metrics" || arg == "--exclude-metrics") {
      // Comma-separated names/prefixes, accumulated across repeats.
      std::vector<std::string>& into = arg == "--metrics" ? opts.metrics : opts.exclude;
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string elem =
            list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!elem.empty()) into.push_back(elem);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (into.empty()) {
        std::fprintf(stderr, "jsonl_compare: %s requires at least one metric name\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg == "--metric-rel-tol") {
      const auto [name, tol] = name_value(arg, value());
      opts.rel_tol_for[name] = tol;
    } else if (arg == "--metric-abs-tol") {
      const auto [name, tol] = name_value(arg, value());
      opts.abs_tol_for[name] = tol;
    } else if (arg == "--help" || arg == "-h") {
      std::puts(kUsage);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "jsonl_compare: unknown flag '%s'\n%s\n", arg.c_str(), kUsage);
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::fprintf(stderr, "jsonl_compare: unexpected argument '%s'\n%s\n", arg.c_str(), kUsage);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  try {
    const auto baseline = oal::core::read_jsonl_file(baseline_path);
    const auto current = oal::core::read_jsonl_file(current_path);
    const auto res = oal::core::compare_jsonl(baseline, current, opts);
    std::printf("jsonl_compare: %zu records, %zu metrics compared (rel_tol %.3g, abs_tol %.3g)\n",
                res.records_compared, res.metrics_compared, opts.rel_tol, opts.abs_tol);
    if (res.records_only_in_current > 0)
      std::printf("  note: %zu record(s) only in current (not gated; refresh the baseline to "
                  "track them)\n",
                  res.records_only_in_current);
    for (const auto& issue : res.issues) std::printf("  REGRESSION: %s\n", issue.c_str());
    if (!res.ok()) {
      std::printf("jsonl_compare: FAIL (%zu issues)\n", res.issues.size());
      return 1;
    }
    std::puts("jsonl_compare: OK");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsonl_compare: %s\n", e.what());
    return 2;
  }
}
