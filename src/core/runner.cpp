#include "core/runner.h"

#include <cmath>
#include <stdexcept>

namespace oal::core {

double RunResult::total_energy_j() const {
  double e = 0.0;
  for (const auto& r : records) e += r.energy_j;
  return e;
}

double RunResult::oracle_energy_j() const {
  double e = 0.0;
  for (const auto& r : records) e += r.oracle_energy_j;
  return e;
}

double RunResult::total_time_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.exec_time_s;
  return t;
}

double RunResult::energy_ratio() const {
  const double oe = oracle_energy_j();
  if (oe <= 0.0) throw std::logic_error("RunResult::energy_ratio: no oracle energies");
  return total_energy_j() / oe;
}

double RunResult::energy_ratio_for_app(std::uint32_t app_id) const {
  double e = 0.0, oe = 0.0;
  for (const auto& r : records) {
    if (r.app_id != app_id) continue;
    e += r.energy_j;
    oe += r.oracle_energy_j;
  }
  if (oe <= 0.0) throw std::invalid_argument("energy_ratio_for_app: app not in run");
  return e / oe;
}

double RunResult::big_freq_accuracy(std::size_t begin, std::size_t end,
                                    int tolerance_steps) const {
  if (begin >= end || end > records.size())
    throw std::invalid_argument("big_freq_accuracy: bad range");
  std::size_t hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const soc::SocConfig d = records[i].policy_decision.value_or(records[i].applied);
    if (std::abs(d.big_freq_idx - records[i].oracle.big_freq_idx) <= tolerance_steps) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(end - begin);
}

DrmRunner::DrmRunner(soc::BigLittlePlatform& platform, RunnerOptions opts)
    : platform_(&platform), opts_(opts) {}

RunResult DrmRunner::run(const std::vector<soc::SnippetDescriptor>& trace,
                         DrmController& controller, const soc::SocConfig& initial) {
  RunResult out;
  out.records.reserve(trace.size());
  controller.begin_run(initial);
  soc::SocConfig current = initial;
  DecisionTimer timer;
  double clock = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const soc::SnippetDescriptor& s = trace[i];
    if (opts_.arbiter) current = opts_.arbiter(s, current);
    const soc::SnippetResult r = platform_->execute(s, current);

    SnippetRecord rec;
    rec.index = i;
    rec.app_id = s.app_id;
    rec.start_time_s = clock;
    rec.applied = current;
    rec.energy_j = r.energy_j;
    rec.exec_time_s = r.exec_time_s;
    if (opts_.compute_oracle) {
      rec.oracle = opts_.oracle_cache ? opts_.oracle_cache->config(*platform_, s, opts_.objective)
                                      : oracle_config(*platform_, s, opts_.objective);
      rec.oracle_energy_j = platform_->execute_ideal(s, rec.oracle).energy_j;
    }

    if (opts_.observer) opts_.observer(s, current, r);
    if (opts_.telemetry) controller.observe_telemetry(opts_.telemetry());
    const auto t0 = timer.start();
    current = controller.step(r, current);
    timer.stop(t0);
    rec.policy_decision = controller.last_policy_decision();
    out.records.push_back(rec);
    clock += r.exec_time_s;
  }
  out.decision_latency = timer.stats();
  return out;
}

}  // namespace oal::core
