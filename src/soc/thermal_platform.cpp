#include "soc/thermal_platform.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace oal::soc {

namespace {

// Node indices of thermal::RcThermalNetwork::mobile_soc().
constexpr std::size_t kBigNode = 0;
constexpr std::size_t kLittleNode = 1;
constexpr std::size_t kGpuNode = 2;
constexpr std::size_t kPcbNode = 3;

double sum(const common::Vec& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Both adapter constructors accept user-supplied per-node vectors; any size
/// mismatch against the RC network would silently index out of range deep in
/// the hot loop, so validate everything up front with sizes in the message.
/// Returns the adapter's mobile-SoC network at its starting temperatures.
thermal::RcThermalNetwork validated_network(const char* who, double ambient_c,
                                            const common::Vec& initial_temperature_c,
                                            const thermal::LeakageModel& leak) {
  thermal::RcThermalNetwork net = thermal::RcThermalNetwork::mobile_soc(ambient_c);
  const std::size_t n = net.num_nodes();
  const auto fail = [who, n](const char* field, std::size_t got) {
    throw std::invalid_argument(std::string(who) + ": " + field + " has " + std::to_string(got) +
                                " entries but the RC network has " + std::to_string(n) +
                                " nodes");
  };
  if (!initial_temperature_c.empty() && initial_temperature_c.size() != n)
    fail("initial_temperature_c", initial_temperature_c.size());
  if (leak.p0_w.size() != n) fail("leakage.p0_w", leak.p0_w.size());
  if (leak.k_per_c.size() != n) fail("leakage.k_per_c", leak.k_per_c.size());
  if (!std::isfinite(ambient_c))
    throw std::invalid_argument(std::string(who) + ": non-finite ambient_c");
  for (double t : initial_temperature_c)
    if (!std::isfinite(t))
      throw std::invalid_argument(std::string(who) + ": non-finite initial_temperature_c entry");
  if (!initial_temperature_c.empty()) net.set_temperatures(initial_temperature_c);
  return net;
}

/// The budget cadence and horizon must be finite: a NaN horizon would
/// silently select the steady-state budget, and a NaN or infinite interval
/// would never refresh the budget.
void validate_budget_timing(const char* who, double horizon_s, double budget_interval_s) {
  if (!std::isfinite(horizon_s))
    throw std::invalid_argument(std::string(who) + ": horizon_s must be finite");
  if (!std::isfinite(budget_interval_s))
    throw std::invalid_argument(std::string(who) + ": budget_interval_s must be finite");
}

}  // namespace

ThermalSocAdapter::ThermalSocAdapter(BigLittlePlatform& platform, ThermalConstraintParams params)
    : platform_(&platform),
      params_(std::move(params)),
      net_(validated_network("ThermalSocAdapter", params_.ambient_c,
                             params_.initial_temperature_c, params_.leakage)),
      budgeter_(net_, params_.leakage, params_.limits),
      shape_w_(net_.num_nodes(), 0.0),
      leak_w_(net_.num_nodes(), 0.0),
      power_w_(net_.num_nodes(), 0.0) {
  validate_budget_timing("ThermalSocAdapter", params_.horizon_s, params_.budget_interval_s);
  // Nominal big-heavy shape until the first snippet is observed.
  shape_w_[kBigNode] = 0.55;
  shape_w_[kLittleNode] = 0.10;
  shape_w_[kPcbNode] = 0.35;
  track_peaks();
  refresh_budget();
}

void ThermalSocAdapter::refresh_budget() {
  if (params_.horizon_s > 0.0) {
    const double scale =
        budgeter_.transient_power_headroom(net_.temperatures(), shape_w_, params_.horizon_s);
    budget_w_ = scale * sum(shape_w_);
  } else {
    budget_w_ = budgeter_.max_sustainable_power(shape_w_).total_power_w;
  }
}

bool throttle_step(SocConfig& c) {
  // Big-cluster knobs are only touched while the cluster is on: with
  // num_big == 0 its frequency has no power effect, and stepping it would
  // record phantom clamps.
  if (c.num_big > 0) {
    if (c.big_freq_idx > 0) {
      --c.big_freq_idx;
    } else {
      --c.num_big;
    }
  } else if (c.little_freq_idx > 0) {
    --c.little_freq_idx;
  } else if (c.num_little > 1) {
    --c.num_little;
  } else {
    return false;
  }
  return true;
}

SocConfig ThermalSocAdapter::arbitrate(const SnippetDescriptor& s, const SocConfig& proposed) {
  SocConfig c = proposed;
  const auto over_budget = [&](const SocConfig& cc) {
    return platform_->execute_ideal(s, cc).avg_power_w > budget_w_;
  };
  // Firmware-style throttle ladder; bottoms out at 1 LITTLE core at minimum
  // frequency (the budget can be infeasible — e.g. base power alone above
  // it — in which case the floor config runs and temperatures keep rising
  // until the next budget refresh).
  while (over_budget(c)) {
    if (!throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

// oal-lint: hot-path
void ThermalSocAdapter::observe(const SnippetDescriptor& s, const SocConfig& applied,
                               const SnippetResult& r) {
  const PowerBreakdown bd = platform_->power_breakdown(s, applied);
  std::fill(shape_w_.begin(), shape_w_.end(), 0.0);
  shape_w_[kBigNode] = bd.big_w;
  shape_w_[kLittleNode] = bd.little_w;
  shape_w_[kPcbNode] = bd.dram_w + bd.base_w;

  params_.leakage.leakage_into(net_.temperatures(), leak_w_);
  for (std::size_t i = 0; i < power_w_.size(); ++i) power_w_[i] = shape_w_[i] + leak_w_[i];
  net_.step(power_w_, r.exec_time_s);
  track_peaks();

  since_budget_s_ += r.exec_time_s;
  if (since_budget_s_ >= params_.budget_interval_s) {
    refresh_budget();
    since_budget_s_ = 0.0;
  }
}
// oal-lint: hot-path-end

void ThermalSocAdapter::track_peaks() {
  const common::Vec& t = net_.temperatures();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == params_.limits.skin_node) {
      peak_skin_c_ = std::max(peak_skin_c_, t[i]);
    } else if (i != kPcbNode) {
      peak_junction_c_ = std::max(peak_junction_c_, t[i]);
    }
  }
}

ThermalTelemetry ThermalSocAdapter::telemetry() const {
  ThermalTelemetry t;
  t.constrained = true;
  const common::Vec& temps = net_.temperatures();
  double junction = temps[kBigNode];
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (i == params_.limits.skin_node || i == kPcbNode) continue;
    junction = std::max(junction, temps[i]);
  }
  t.junction_c = junction;
  t.skin_c = temps[params_.limits.skin_node];
  t.junction_limit_c = params_.limits.t_max_junction_c;
  t.skin_limit_c = params_.limits.t_max_skin_c;
  t.ambient_c = params_.ambient_c;
  t.budget_w = budget_w_;
  t.last_power_w = sum(shape_w_);
  return t;
}

// ---------------------------------------------------------------------------
// ThermalGpuAdapter
// ---------------------------------------------------------------------------

ThermalGpuAdapter::ThermalGpuAdapter(gpu::GpuPlatform& platform, double period_s,
                                     ThermalGpuConstraintParams params)
    : platform_(&platform),
      period_s_(period_s),
      params_(std::move(params)),
      net_(validated_network("ThermalGpuAdapter", params_.ambient_c,
                             params_.initial_temperature_c, params_.leakage)),
      budgeter_(net_, params_.leakage, params_.limits),
      shape_w_(net_.num_nodes(), 0.0),
      leak_w_(net_.num_nodes(), 0.0),
      power_w_(net_.num_nodes(), 0.0) {
  if (!(period_s_ > 0.0 && std::isfinite(period_s_)))
    throw std::invalid_argument("ThermalGpuAdapter: period_s must be finite and > 0");
  validate_budget_timing("ThermalGpuAdapter", params_.horizon_s, params_.budget_interval_s);
  // Nominal render-heavy shape until the first frame is observed.
  shape_w_[kGpuNode] = 0.60;
  shape_w_[kPcbNode] = 0.40;
  track_peaks();
  refresh_budget();
}

void ThermalGpuAdapter::refresh_budget() {
  if (params_.horizon_s > 0.0) {
    const double scale =
        budgeter_.transient_power_headroom(net_.temperatures(), shape_w_, params_.horizon_s);
    budget_w_ = scale * sum(shape_w_);
  } else {
    budget_w_ = budgeter_.max_sustainable_power(shape_w_).total_power_w;
  }
}

bool gpu_throttle_step(gpu::GpuConfig& c) {
  if (c.freq_idx > 0) {
    --c.freq_idx;
  } else if (c.num_slices > 1) {
    --c.num_slices;
  } else {
    return false;
  }
  return true;
}

gpu::GpuConfig ThermalGpuAdapter::arbitrate(const gpu::FrameDescriptor& f,
                                            const gpu::GpuConfig& proposed) {
  gpu::GpuConfig c = proposed;
  const auto over_budget = [&](const gpu::GpuConfig& cc) {
    // Full producer-side power (PKG + DRAM scope) against the budget — the
    // same total the observer injects into the RC network.
    return platform_->render_ideal(f, cc, period_s_).pkg_dram_energy_j / period_s_ > budget_w_;
  };
  // Firmware throttle ladder; bottoms out at 1 slice at minimum frequency
  // (an infeasible budget runs the floor config and temperatures keep rising
  // until the next refresh).
  while (over_budget(c)) {
    if (!gpu_throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

// oal-lint: hot-path
void ThermalGpuAdapter::observe(const gpu::FrameDescriptor& /*f*/,
                                const gpu::GpuConfig& /*applied*/, const gpu::FrameResult& r) {
  std::fill(shape_w_.begin(), shape_w_.end(), 0.0);
  shape_w_[kGpuNode] = r.gpu_energy_j / period_s_;
  shape_w_[kPcbNode] = (r.pkg_dram_energy_j - r.gpu_energy_j) / period_s_;

  params_.leakage.leakage_into(net_.temperatures(), leak_w_);
  for (std::size_t i = 0; i < power_w_.size(); ++i) power_w_[i] = shape_w_[i] + leak_w_[i];
  net_.step(power_w_, period_s_);
  track_peaks();

  since_budget_s_ += period_s_;
  if (since_budget_s_ >= params_.budget_interval_s) {
    refresh_budget();
    since_budget_s_ = 0.0;
  }
}
// oal-lint: hot-path-end

void ThermalGpuAdapter::track_peaks() {
  const common::Vec& t = net_.temperatures();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == params_.limits.skin_node) {
      peak_skin_c_ = std::max(peak_skin_c_, t[i]);
    } else if (i != kPcbNode) {
      peak_junction_c_ = std::max(peak_junction_c_, t[i]);
    }
  }
}

ThermalTelemetry ThermalGpuAdapter::telemetry() const {
  ThermalTelemetry t;
  t.constrained = true;
  const common::Vec& temps = net_.temperatures();
  double junction = temps[kGpuNode];
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (i == params_.limits.skin_node || i == kPcbNode) continue;
    junction = std::max(junction, temps[i]);
  }
  t.junction_c = junction;
  t.skin_c = temps[params_.limits.skin_node];
  t.junction_limit_c = params_.limits.t_max_junction_c;
  t.skin_limit_c = params_.limits.t_max_skin_c;
  t.ambient_c = params_.ambient_c;
  t.budget_w = budget_w_;
  t.last_power_w = sum(shape_w_);
  return t;
}

}  // namespace oal::soc
