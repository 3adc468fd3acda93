// Small statistics helpers shared by models, benches and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace oal::common {

double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  // population variance
double stddev(const std::vector<double>& xs);
double median(std::vector<double> xs);
/// p in [0, 100]; linear interpolation between order statistics.
double percentile(std::vector<double> xs, double p);
/// The one percentile rule shared repo-wide (common::stats::percentile,
/// core::DecisionTimer, fleet::PopulationAggregator): linear interpolation
/// between order statistics at idx = p/100 * (n-1) over an ALREADY-SORTED
/// range.  Keeping a single primitive means every surface that reports a
/// p50/p99 agrees bit-for-bit on the same samples.  Throws on n == 0 or
/// p outside [0, 100].
double percentile_sorted(const double* xs, std::size_t n, double p);

/// True when `v`, a count field read from an untrusted blob, is finite,
/// integral and in [0, max], so its cast to size_t is exact and defined.
bool is_count(double v, double max);

/// Mean absolute percentage error: mean(|pred - actual| / |actual|) * 100.
/// Entries with |actual| < eps are skipped.
double mape(const std::vector<double>& actual, const std::vector<double>& predicted,
            double eps = 1e-12);

/// Root-mean-square error.
double rmse(const std::vector<double>& actual, const std::vector<double>& predicted);

/// Pearson correlation coefficient.
double correlation(const std::vector<double>& a, const std::vector<double>& b);

/// Streaming mean / variance (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // population
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace oal::common
