// Streaming population aggregation for fleet-scale sweeps.
//
// A fleet sweep must report population-level distributions (E/Oracle,
// clamp rate, skin violations) over thousands of devices without ever
// holding all their results — the whole point of the streaming engine is
// that peak result memory is one shard.  PopulationAggregator is the sink
// side of that contract: every accumulator is fixed-capacity.
//
//  * count / mean / min / max and the integer totals (devices, snippets,
//    clamps, violations) are exact over the whole population
//    (common::RunningStats Welford + counters).
//  * p50/p99 come from a deterministic fixed-size window of the most
//    recent `capacity` samples (a ring, exactly core::DecisionTimer's
//    scheme) evaluated with the repo-wide common::percentile_sorted rule —
//    exact whenever the population fits the window, deterministic always,
//    because the streaming engine delivers results in id order regardless
//    of thread count.
//  * The worst-N tail-device table keeps N rows, ordered worst-first by
//    energy ratio with the device id as the deterministic tie-break.
//
// Cohorts are recovered from the device id alone
// (DevicePopulation::cohort_of_id), so the aggregator needs nothing beyond
// the AnyResult stream the engine sink provides.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/domain.h"

namespace oal::fleet {

/// Fixed-capacity streaming accumulator: exact count/mean/min/max, ring
/// window for percentiles.  The per-sample add path never allocates;
/// percentile() sorts a copy of the window at report time.
class StreamingMetric {
 public:
  explicit StreamingMetric(std::size_t capacity = 4096);

  void add(double x);
  const common::RunningStats& stats() const { return stats_; }
  /// Samples currently retained for percentiles (= min(count, capacity)).
  std::size_t window() const;
  /// Percentile over the retained window via common::percentile_sorted
  /// (the repo-wide rule); throws std::invalid_argument while empty.
  double percentile(double p) const;

 private:
  common::RunningStats stats_;
  std::vector<double> window_;  ///< ring over the most recent samples
  std::size_t count_ = 0;
};

/// One row of the worst-N tail-device table.
struct TailDevice {
  std::string id;
  double energy_ratio = 0.0;
  double clamp_rate = 0.0;
  double peak_skin_c = 0.0;
};

/// Distribution summary of one cohort (or of the whole population).
struct CohortStats {
  std::size_t devices = 0;          ///< exact
  std::size_t snippets = 0;         ///< exact total
  std::size_t clamped = 0;          ///< exact total clamped decisions
  std::size_t skin_violations = 0;  ///< devices with peak skin > limit (exact)
  StreamingMetric energy_ratio;     ///< E/Oracle per device
  StreamingMetric clamp_rate;       ///< clamped / snippets per device
  StreamingMetric peak_skin_c;      ///< per-device peak skin temperature
};

class PopulationAggregator {
 public:
  explicit PopulationAggregator(double t_max_skin_c, std::size_t worst_n = 10);

  /// Folds one device result (a fleet ThermalDrmScenario arm) in.  Call in
  /// the engine sink; delivery order is deterministic, so the aggregate is
  /// identical serial vs N-thread.
  void add(const core::AnyResult& result);

  std::size_t devices() const { return population_.devices; }
  const CohortStats& population() const { return population_; }
  /// Cohort key -> stats, ordered (std::map) for deterministic reporting.
  const std::map<std::string, CohortStats>& cohorts() const { return cohorts_; }
  /// Worst-first tail devices (highest energy ratio; id tie-break).
  const std::vector<TailDevice>& worst() const { return worst_; }

 private:
  void fold(CohortStats& into, std::size_t snippets, std::size_t clamped, double energy_ratio,
            double clamp_rate, double peak_skin_c) const;

  double t_max_skin_c_;
  std::size_t worst_n_;
  CohortStats population_;
  std::map<std::string, CohortStats> cohorts_;
  std::vector<TailDevice> worst_;  ///< sorted worst-first, <= worst_n_ rows
};

}  // namespace oal::fleet
