#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oal::common {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("mean of empty vector");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty vector");
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs.data(), xs.size(), p);
}

double percentile_sorted(const double* xs, std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of empty vector");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of range");
  const double idx = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

bool is_count(double v, double max) {
  return std::isfinite(v) && v >= 0.0 && v <= max && v == std::floor(v);
}

double mape(const std::vector<double>& actual, const std::vector<double>& predicted, double eps) {
  if (actual.size() != predicted.size()) throw std::invalid_argument("mape size mismatch");
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < eps) continue;
    s += std::abs(predicted[i] - actual[i]) / std::abs(actual[i]);
    ++n;
  }
  if (n == 0) throw std::invalid_argument("mape: no valid entries");
  return 100.0 * s / static_cast<double>(n);
}

double rmse(const std::vector<double>& actual, const std::vector<double>& predicted) {
  if (actual.size() != predicted.size()) throw std::invalid_argument("rmse size mismatch");
  if (actual.empty()) throw std::invalid_argument("rmse of empty vectors");
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = predicted[i] - actual[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(actual.size()));
}

double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) throw std::invalid_argument("correlation size mismatch");
  const double ma = mean(a), mb = mean(b);
  double sab = 0.0, sa = 0.0, sb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    sa += (a[i] - ma) * (a[i] - ma);
    sb += (b[i] - mb) * (b[i] - mb);
  }
  if (sa <= 0.0 || sb <= 0.0) return 0.0;
  return sab / std::sqrt(sa * sb);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ == 0) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace oal::common
