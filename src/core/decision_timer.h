// Per-decision latency instrumentation for the decision hot path.
//
// The paper's central practicality claim is that the learned policies decide
// in microseconds (cheap enough for firmware); this header makes that number
// a first-class, continuously-measured metric instead of a one-off benchmark.
// DecisionTimer wraps exactly the controller's decide/step call inside the
// runners, accumulates nanosecond samples into a fixed-capacity reservoir
// (no allocation — the timer must not perturb the allocation-free hot path
// it measures), and reports p50/p99/max at run end.  The count and max are
// exact over all decisions; percentiles are computed over the most recent
// kCapacity samples (a full window for every bench in this repo).
//
// Latency values are wall-clock and therefore machine-dependent: the benches
// emit them into `decision_latency` JSONL records for tracking, but the CI
// gates compare only the decision *counts* — never the nanoseconds.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>

#include "common/stats.h"

namespace oal::core {

/// Summary of one run's decision latencies (see DecisionTimer).
struct DecisionLatencyStats {
  std::size_t decisions = 0;  ///< timed decisions (exact)
  double p50_ns = 0.0;        ///< median over the sample window
  double p99_ns = 0.0;        ///< 99th percentile over the sample window
  double max_ns = 0.0;        ///< exact maximum over all decisions
};

class DecisionTimer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Sample window: large enough that every bench run in this repo keeps all
  /// of its decisions; longer runs keep the most recent kCapacity.
  static constexpr std::size_t kCapacity = 4096;

  Clock::time_point start() const { return Clock::now(); }

  void stop(Clock::time_point t0) {
    record(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }

  void record(double ns) {
    samples_[count_ % kCapacity] = ns;
    ++count_;
    if (ns > max_ns_) max_ns_ = ns;
  }

  std::size_t count() const { return count_; }

  /// Percentiles over the retained window via the repo-wide
  /// common::stats::percentile_sorted rule (linear interpolation between
  /// order statistics — identical to common::stats::percentile and the
  /// fleet aggregator on the same samples); O(window log window) on a stack
  /// copy of the retained samples only, intended for run end (never the
  /// per-decision path).
  DecisionLatencyStats stats() const {
    DecisionLatencyStats s;
    s.decisions = count_;
    s.max_ns = max_ns_;
    const std::size_t n = std::min(count_, kCapacity);
    if (n == 0) return s;
    std::array<double, kCapacity> sorted;
    std::copy_n(samples_.begin(), n, sorted.begin());
    std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n));
    s.p50_ns = common::percentile_sorted(sorted.data(), n, 50.0);
    s.p99_ns = common::percentile_sorted(sorted.data(), n, 99.0);
    return s;
  }

 private:
  /// Left unfilled: only the first min(count_, kCapacity) slots are ever
  /// read, and record() writes each before that.
  std::array<double, kCapacity> samples_;
  std::size_t count_ = 0;
  double max_ns_ = 0.0;
};

}  // namespace oal::core
