#include "bench/driver.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>

namespace oal::bench {

ResultIndex::ResultIndex(const std::vector<core::AnyResult>& results) {
  for (const core::AnyResult& r : results) by_id_.emplace(r.id(), &r);
}

const core::AnyResult* ResultIndex::find(const std::string& id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

bool ResultIndex::has_all(const std::vector<std::string>& ids) const {
  for (const std::string& id : ids)
    if (!has(id)) return false;
  return true;
}

BenchDriver::BenchDriver(std::string bench_name) : bench_name_(std::move(bench_name)) {}

void BenchDriver::add_size_option(const std::string& flag, std::size_t* value,
                                  const std::string& help) {
  size_options_.push_back(SizeOption{flag, value, help});
}

std::string BenchDriver::usage() const {
  std::string out = "usage: " + bench_name_ + " [prefix...] [--list] [--json <path>] [--store <dir>]";
  for (const SizeOption& opt : size_options_) {
    out += " [" + opt.flag + " <n>]";
  }
  out += "\n  prefix       run only arms selected by the '/'-segment prefix (see --list)";
  out += "\n  --list       print the selected arm names and exit";
  out += "\n  --json       append one JSONL record per arm to <path>";
  out += "\n  --store      persist Oracle searches + pretrained weights in <dir> (warm reuse)";
  for (const SizeOption& opt : size_options_) {
    out += "\n  " + opt.flag + "  " + opt.help + " (default " + std::to_string(*opt.value) + ")";
  }
  return out;
}

bool BenchDriver::fail(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n%s\n", bench_name_.c_str(), message.c_str(), usage().c_str());
  exit_code_ = 2;
  return false;
}

bool BenchDriver::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      std::puts(usage().c_str());
      exit_code_ = 0;
      return false;
    }
    if (arg == "--list") {
      list_ = true;
      continue;
    }
    if (arg == "--json") {
      const char* path = value();
      if (!path) return fail("--json requires a path argument");
      json_path_ = path;
      continue;
    }
    if (arg == "--store") {
      const char* dir = value();
      if (!dir) return fail("--store requires a directory argument");
      store_dir_ = dir;
      continue;
    }
    bool matched = false;
    for (const SizeOption& opt : size_options_) {
      if (arg != opt.flag) continue;
      const char* text = value();
      if (!text) return fail(opt.flag + " requires a count argument");
      char* end = nullptr;
      // strtoull would wrap "-3" into a huge count; reject signs up front.
      errno = 0;
      const unsigned long long parsed = text[0] == '-' ? 0 : std::strtoull(text, &end, 10);
      if (end == text || !end || *end != '\0' || parsed == 0)
        return fail(opt.flag + " expects a positive integer, got '" + text + "'");
      // An overflowing literal ("--devices 99999999999999999999") clamps to
      // ULLONG_MAX with ERANGE; a value past size_t must not silently
      // truncate through the cast either.  Both exit 2 with usage.
      const auto as_size = static_cast<std::size_t>(parsed);
      if (errno == ERANGE || static_cast<unsigned long long>(as_size) != parsed)
        return fail(opt.flag + " value out of range: '" + text + "'");
      *opt.value = as_size;
      matched = true;
      break;
    }
    if (matched) continue;
    if (!arg.empty() && arg[0] == '-') return fail("unknown flag '" + arg + "'");
    prefixes_.push_back(arg);
  }
  if (!json_path_.empty()) {
    try {
      json_ = std::make_unique<core::JsonlWriter>(json_path_);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }
  if (!store_dir_.empty()) {
    try {
      store_ = std::make_shared<core::ArtifactStore>(store_dir_);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }
  return true;
}

bool BenchDriver::selected_names(const core::ScenarioRegistry& registry,
                                 std::vector<std::string>& out) const {
  std::set<std::string> names;
  if (prefixes_.empty()) {
    for (const std::string& name : registry.names()) names.insert(name);
  } else {
    for (const std::string& prefix : prefixes_) {
      const auto matched = registry.names(prefix);
      if (matched.empty()) {
        std::fprintf(stderr, "%s: prefix '%s' selects no arm (try --list)\n",
                     bench_name_.c_str(), prefix.c_str());
        return false;
      }
      names.insert(matched.begin(), matched.end());
    }
  }
  out.assign(names.begin(), names.end());
  return true;
}

int BenchDriver::list(const core::ScenarioRegistry& registry) const {
  std::vector<std::string> names;
  if (!selected_names(registry, names)) return 2;
  for (const std::string& name : names) std::puts(name.c_str());
  return 0;
}

std::vector<std::string> BenchDriver::selection(const core::ScenarioRegistry& registry) const {
  std::vector<std::string> names;
  if (!selected_names(registry, names)) {
    std::fprintf(stderr, "%s\n", usage().c_str());
    std::exit(2);
  }
  return names;
}

std::vector<core::AnyScenario> BenchDriver::select(
    const core::ScenarioRegistry& registry) const {
  const std::vector<std::string> names = selection(registry);
  std::vector<core::AnyScenario> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(registry.build(name));
  return out;
}

core::JsonlWriter& BenchDriver::json() {
  // Benches call this unconditionally; without --json the writer is a
  // disabled sink (empty path).
  if (!json_) json_ = std::make_unique<core::JsonlWriter>("");
  return *json_;
}

void write_oracle_stats(BenchDriver& driver, core::OracleCache& cache, double wall_time_s) {
  const double spilled = static_cast<double>(cache.flush());
  driver.json().write_metrics(driver.bench_name(), driver.bench_name() + "/oracle_stats",
                              {{"lookups", static_cast<double>(cache.lookups())},
                               {"searches", static_cast<double>(cache.searches())},
                               {"hits", static_cast<double>(cache.hits())},
                               {"entries", static_cast<double>(cache.size())},
                               {"store_loaded", static_cast<double>(cache.store_loaded())},
                               {"store_spilled", spilled},
                               {"wall_time_s", wall_time_s}});
}

void write_decision_latency(BenchDriver& driver, const std::vector<core::AnyResult>& results) {
  for (const core::AnyResult& r : results) {
    const core::DecisionLatencyStats* s = nullptr;
    if (r.holds<core::RunResult>()) {
      s = &r.as<core::RunResult>().decision_latency;
    } else if (r.holds<core::GpuRunResult>()) {
      s = &r.as<core::GpuRunResult>().decision_latency;
    } else if (r.holds<core::ThermalRunResult>()) {
      s = &r.as<core::ThermalRunResult>().run.decision_latency;
    } else if (r.holds<core::ThermalGpuRunResult>()) {
      s = &r.as<core::ThermalGpuRunResult>().run.decision_latency;
    }
    if (s == nullptr || s->decisions == 0) continue;
    driver.json().write_metrics(driver.bench_name(), r.id() + "/decision_latency",
                                {{"decisions", static_cast<double>(s->decisions)},
                                 {"p50_ns", s->p50_ns},
                                 {"p99_ns", s->p99_ns},
                                 {"max_ns", s->max_ns}});
  }
}

}  // namespace oal::bench
