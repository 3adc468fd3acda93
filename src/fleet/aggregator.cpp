#include "fleet/aggregator.h"

#include <algorithm>
#include <stdexcept>

#include "fleet/device_population.h"

namespace oal::fleet {

StreamingMetric::StreamingMetric(std::size_t capacity) : window_(capacity, 0.0) {
  if (capacity == 0) throw std::invalid_argument("StreamingMetric: capacity must be > 0");
}

void StreamingMetric::add(double x) {
  stats_.add(x);
  window_[count_ % window_.size()] = x;
  ++count_;
}

std::size_t StreamingMetric::window() const { return std::min(count_, window_.size()); }

double StreamingMetric::percentile(double p) const {
  const std::size_t n = window();
  if (n == 0) throw std::invalid_argument("StreamingMetric: percentile of empty window");
  std::vector<double> sorted(window_.begin(), window_.begin() + static_cast<std::ptrdiff_t>(n));
  std::sort(sorted.begin(), sorted.end());
  return common::percentile_sorted(sorted.data(), n, p);
}

PopulationAggregator::PopulationAggregator(double t_max_skin_c, std::size_t worst_n)
    : t_max_skin_c_(t_max_skin_c), worst_n_(worst_n) {
  worst_.reserve(worst_n_ + 1);
}

void PopulationAggregator::fold(CohortStats& into, std::size_t snippets, std::size_t clamped,
                                double energy_ratio, double clamp_rate,
                                double peak_skin_c) const {
  into.devices += 1;
  into.snippets += snippets;
  into.clamped += clamped;
  if (peak_skin_c > t_max_skin_c_) into.skin_violations += 1;
  into.energy_ratio.add(energy_ratio);
  into.clamp_rate.add(clamp_rate);
  into.peak_skin_c.add(peak_skin_c);
}

void PopulationAggregator::add(const core::AnyResult& result) {
  const auto snippets = static_cast<std::size_t>(result.metric("snippets"));
  const auto clamped = static_cast<std::size_t>(result.metric("clamped_snippets"));
  const double energy_ratio = result.has_metric("energy_ratio") ? result.metric("energy_ratio")
                                                                : 1.0;  // oracle disabled
  const double clamp_rate =
      snippets == 0 ? 0.0 : static_cast<double>(clamped) / static_cast<double>(snippets);
  const double peak_skin_c = result.metric("peak_skin_c");

  fold(population_, snippets, clamped, energy_ratio, clamp_rate, peak_skin_c);
  const std::string cohort = DevicePopulation::cohort_of_id(result.id());
  fold(cohorts_[cohort], snippets, clamped, energy_ratio, clamp_rate, peak_skin_c);

  if (worst_n_ == 0) return;
  // Insertion sort into the fixed-size tail table: worst first by energy
  // ratio, id as the deterministic tie-break.
  TailDevice row{result.id(), energy_ratio, clamp_rate, peak_skin_c};
  const auto pos = std::upper_bound(worst_.begin(), worst_.end(), row,
                                    [](const TailDevice& a, const TailDevice& b) {
                                      if (a.energy_ratio != b.energy_ratio)
                                        return a.energy_ratio > b.energy_ratio;
                                      return a.id < b.id;
                                    });
  if (pos == worst_.end() && worst_.size() >= worst_n_) return;
  worst_.insert(pos, std::move(row));
  if (worst_.size() > worst_n_) worst_.pop_back();
}

}  // namespace oal::fleet
